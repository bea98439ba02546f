import hashlib
import importlib.resources
import os
from dataclasses import replace

import numpy as np
import pytest
import yaml

from preadaptive_control import (
    DivergenceError,
    LearnerError,
    ThetaSchedule,
    cli,
    default_config,
    simengine,
)
from preadaptive_control import run as sim_run

from conftest import assert_no_child_left, counting_forks


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


@pytest.mark.parametrize("entry, field", [
    ("preadapt: {enabled: true, learner: true, clip_norm: -1}", "clip_norm"),
    ("preadapt: {enabled: true, learner: true, clip_norm: 0}", "clip_norm"),
    ("preadapt: {enabled: true, learner: true, gamma_pa: -1}", "gamma_pa"),
    ("attention: {omega_n: 5000}", "omega_n"),
    ("attention: {omega_n: 1.0e+300}", "omega_n"),
    ("attention: {estimator: dirty, tau_f: 1.0e-6}", "tau_f"),
])
def test_ascent_or_unstable_estimator_rejected(tmp_path, entry, field):
    # these used to run with status ok: a step or clip bound of 0 or less
    # turned the learner into gradient ascent, and an estimator unstable at
    # dt filled tens of thousands of trace rows with inf and NaN
    path = tmp_path / "bad.yaml"
    path.write_text(f"plant: b747\nschedule: {{scenario: 1}}\n{entry}\n")
    with pytest.raises(cli.ConfigError, match=f"^{field} "):
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
#: recorded with the single-process writer, and of the whole file: a change
#: that moves u alone fails only the second.
SHORT_TRACE_SHA256 = "b7115b01d3202a4b468e0c790e661b6abb0b3a32c99aa2fe801ca61bb1975803"
SHORT_TRACE_WITH_U_SHA256 = "e62ff2aac6459a3ee062b8a02f8c0d7ca6d39179682ef395b543447b716aa73f"


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
    text = (out / "trace.csv").read_text()
    assert _digest_without_u(text) == SHORT_TRACE_SHA256
    assert hashlib.sha256(text.encode()).hexdigest() == SHORT_TRACE_WITH_U_SHA256


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


@pytest.mark.parametrize("which", ["ok", "diverged"])
def test_trace_csv_bytes_do_not_depend_on_part_count(writer_traces, which, tmp_path,
                                                     monkeypatch):
    res = writer_traces[which]
    ref = _single_process_bytes(res, tmp_path, monkeypatch)
    assert ref.count(b"\n") == len(res.trace["t"]) + 1
    chunks = -(-len(res.trace["t"]) // cli._TRACE_CHUNK)
    forks = counting_forks(monkeypatch)
    for cpus in (2, 3, chunks + 3):
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        forks.clear()
        out = tmp_path / f"cpus{cpus}"
        out.mkdir()
        cli.write_trace_csv(res, out / "trace.csv")
        assert len(forks) == min(cpus, chunks) - 1
        assert (out / "trace.csv").read_bytes() == ref
        assert os.listdir(out) == ["trace.csv"]
        assert_no_child_left()


@pytest.mark.parametrize("failing", ["child", "parent"])
def test_trace_writer_failure_reaps_children(writer_traces, failing, tmp_path,
                                             monkeypatch):
    # the parent formats the part from row 0, each forked child a later part
    real_write_chunks = cli._write_chunks

    def write_chunks(f, trace, lo, hi):
        if (lo == 0) == (failing == "parent"):
            raise OSError(f"planted failure in the {failing}")
        real_write_chunks(f, trace, lo, hi)

    monkeypatch.setattr(cli, "_write_chunks", write_chunks)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 3)
    expected = RuntimeError if failing == "child" else OSError
    with pytest.raises(expected, match="exited with status 1|planted failure"):
        cli.write_trace_csv(writer_traces["ok"], tmp_path / "trace.csv")
    assert_no_child_left()
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


def test_write_chunks_formats_each_value_like_fmt(tmp_path):
    # theta's text is formatted once per piece and spliced into the row
    # format; pieces change inside a chunk and inside a 32-row operation,
    # and 0.0, -0.0 and NaN, which compare alike or unlike, keep their text
    rows, n = 600, 2
    rng = np.random.default_rng(0)
    theta = np.zeros((rows, n))
    theta[100:300] = [-0.0, 0.0]
    theta[300:301] = [np.nan, 1e300]
    theta[301:] = [0.1, -2.5e-7]
    trace = {"t": np.arange(rows) * 1e-3, "x": rng.normal(size=(rows, n)),
             "x_r": rng.normal(size=(rows, n)), "e": rng.normal(size=rows),
             "edot_hat": rng.normal(size=rows), "theta": theta,
             "theta_hat": rng.normal(size=(rows, n)), "u": rng.normal(size=rows),
             "Eu": (np.arange(rows) % 7 == 0).astype(np.int8),
             "Ed": (np.arange(rows) % 11 == 0).astype(np.int8)}
    _assert_chunks_like_fmt(trace, ((0, rows), (99, 301), (300, 300)), tmp_path)


def _assert_chunks_like_fmt(trace, spans, tmp_path):
    """_write_chunks of each (lo, hi) span gives _fmt's text of each value."""
    lines = []
    for k in range(len(trace["t"])):
        values = [trace["t"][k], *trace["x"][k], *trace["x_r"][k], trace["e"][k],
                  trace["edot_hat"][k], *trace["theta"][k], *trace["theta_hat"][k],
                  trace["u"][k]]
        lines.append(",".join([*map(cli._fmt, values), str(trace["Eu"][k]),
                               str(trace["Ed"][k])]) + "\n")
    for lo, hi in spans:
        with open(tmp_path / "part.csv", "w") as f:
            cli._write_chunks(f, trace, lo, hi)
        assert (tmp_path / "part.csv").read_text() == "".join(lines[lo:hi])


def test_write_chunks_splices_a_settled_x_r(tmp_path):
    # x_r's text is spliced into the row format in each chunk whose rows all
    # hold the same x_r bits; it settles inside a chunk, then moves to -0.0
    # and NaN values that compare alike with or unlike the ones before
    rows, n = 1100, 2
    rng = np.random.default_rng(1)
    x_r = rng.normal(size=(rows, n))
    x_r[300:600] = [0.0, -0.0]
    x_r[600:900] = [-0.0, 0.0]
    x_r[900:] = [np.nan, 1e300]
    theta = np.zeros((rows, n))
    theta[700:] = [0.5, -0.0]
    trace = {"t": np.arange(rows) * 1e-3, "x": rng.normal(size=(rows, n)), "x_r": x_r,
             "e": rng.normal(size=rows), "edot_hat": rng.normal(size=rows),
             "theta": theta, "theta_hat": rng.normal(size=(rows, n)),
             "u": rng.normal(size=rows), "Eu": np.zeros(rows, dtype=np.int8),
             "Ed": np.zeros(rows, dtype=np.int8)}
    _assert_chunks_like_fmt(trace, ((0, rows), (44, 1100), (300, 556), (600, 601)),
                            tmp_path)


# --------------------------------------------------------------------------
# the trace formatted while the run steps

#: a scenario-1 schedule that diverges at t = 20 s, 20000 rows into a
#: 30001-row trace
DIVERGING = {"plant": "b747", "schedule": {"pieces": [
    {"t": 0.0, "theta": [0.1, 0.1, 0.1]},
    {"t": 20.0, "theta": [3000.0, 3000.0, 3000.0]}], "horizon": 30.0}}


@pytest.fixture(scope="module")
def streamed_scenarios(tmp_path_factory):
    """The bundled scenario-1 learner file and a diverging one, each with
    the bytes write_trace_csv gives its finished run in one process."""
    path = tmp_path_factory.mktemp("streamed")
    (path / "diverging.yaml").write_text(yaml.safe_dump(DIVERGING))
    scenarios = {}
    for which, scenario in (("learner", scenario_path("scenario1_learner.yaml")),
                            ("diverged", str(path / "diverging.yaml"))):
        res = sim_run(cli.load_scenario(scenario))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(cli, "_cpu_count", lambda: 1)
            cli.write_trace_csv(res, path / f"{which}.csv")
        scenarios[which] = (scenario, res, (path / f"{which}.csv").read_bytes())
    assert scenarios["learner"][1].status == "ok"
    assert scenarios["diverged"][1].status == "diverged"
    assert 20000 < len(scenarios["diverged"][1].trace["t"]) < 30001
    return scenarios


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("which", ["learner", "diverged"])
def test_streamed_trace_equals_written_trace(streamed_scenarios, which, cpus, tmp_path,
                                             monkeypatch):
    scenario, res, ref = streamed_scenarios[which]
    monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
    forks = counting_forks(monkeypatch)
    out = tmp_path / "o"
    code = cli.main(["run", scenario, "--out", str(out)])
    assert code == (cli.EXIT_OK if which == "learner" else cli.EXIT_DIVERGED)
    assert (out / "trace.csv").read_bytes() == ref
    assert ref.count(b"\n") == len(res.trace["t"]) + 1
    assert sorted(os.listdir(out)) == ["summary.yaml", "trace.csv"]
    # with more CPUs than one, parts were forked while the run stepped, on
    # top of the cpus - 1 that split the rows left at its end
    assert len(forks) > cpus - 1 if cpus > 1 else forks == []
    assert_no_child_left()


def test_part_writer_failure_mid_run_exit(short_scenario, tmp_path, monkeypatch, capsys):
    out = tmp_path / "o"
    out.mkdir()
    (out / "trace.csv").write_text("previous trace\n")
    parent = os.getpid()
    real_write_chunks = cli._write_chunks

    def write_chunks(f, trace, lo, hi):
        if os.getpid() != parent:
            raise OSError("planted failure in a part writer")
        real_write_chunks(f, trace, lo, hi)

    raised = []
    real_run = cli.run
    real_fork = cli._TraceCsv._fork

    def run(cfg, on_rows=None):
        try:
            return real_run(cfg, on_rows=on_rows)
        except BaseException as exc:
            raised.append(exc)
            raise

    def fork(self, hi):
        # the run may step its rows before a forked writer has failed: wait,
        # without reaping it, until the writer has exited, so that the run's
        # next chunk finds it
        real_fork(self, hi)
        os.waitid(os.P_PID, self.parts[-1][0], os.WEXITED | os.WNOWAIT)

    monkeypatch.setattr(cli, "_write_chunks", write_chunks)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "run", run)
    monkeypatch.setattr(cli._TraceCsv, "_fork", fork)
    assert cli.main(["run", short_scenario, "--out", str(out)]) == cli.EXIT_OUTPUT
    # the failed part stopped the run: it was seen while the run stepped
    assert [type(exc) for exc in raised] == [cli._PartFailed]
    assert "exited with status 1" in capsys.readouterr().err
    assert os.listdir(out) == ["trace.csv"]
    assert (out / "trace.csv").read_text() == "previous trace\n"
    assert_no_child_left()


@pytest.mark.parametrize("error", [cli.ConfigError, LearnerError])
def test_run_error_with_live_part_writers_keeps_its_exit(short_scenario, error, tmp_path,
                                                         monkeypatch):
    out = tmp_path / "o"
    out.mkdir()
    (out / "trace.csv").write_text("previous trace\n")
    forks = counting_forks(monkeypatch)
    real_run = cli.run

    def run(cfg, on_rows=None):
        def rows_then_fail(trace, stop):
            on_rows(trace, stop)
            if forks:   # a part writer was forked just now, or is done unreaped
                raise error("planted failure in the run")
        return real_run(cfg, on_rows=rows_then_fail)

    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "run", run)
    if error is cli.ConfigError:
        assert cli.main(["run", short_scenario, "--out", str(out)]) == cli.EXIT_CONFIG
    else:   # not an exit code of its own: it stays an exception
        with pytest.raises(LearnerError, match="planted failure"):
            cli.main(["run", short_scenario, "--out", str(out)])
    assert len(forks) == 1
    assert os.listdir(out) == ["trace.csv"]
    assert (out / "trace.csv").read_text() == "previous trace\n"
    assert_no_child_left()


@pytest.mark.parametrize("failing", ["trace", "summary"])
def test_cmd_run_output_failure_exit(short_scenario, failing, tmp_path, monkeypatch,
                                     capsys):
    out = tmp_path / "o"
    out.mkdir()
    (out / "trace.csv").write_text("previous trace\n")
    real_dump = cli.yaml.safe_dump

    def failing_write_chunks(f, trace, lo, hi):
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


@pytest.mark.parametrize("Q, reason", [
    ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], "Lyapunov residual"),
    ([[1e12, 0, 0], [0, 1, 0], [0, 0, 1]], "Kleinman-Newton iteration did not converge"),
])
def test_cmd_run_solver_failure_exit(tmp_path, capsys, Q, reason):
    # a positive-semidefinite Q passes the parser; the offline solves fail
    path = tmp_path / "q.yaml"
    path.write_text(yaml.safe_dump({"plant": "b747", "schedule": {"scenario": 1},
                                    "controller": {"Q": Q}}))
    out = tmp_path / "o"
    assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert reason in capsys.readouterr().err
    assert list(out.iterdir()) == []   # no trace.csv and no temporary file


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


def test_cmd_compare_mismatch_exits_before_running(short_scenario, tmp_path,
                                                  monkeypatch):
    def no_run(cfg, on_rows=None):
        raise AssertionError("a run started")

    monkeypatch.setattr(simengine, "run", no_run)
    code = cli.main([
        "compare", short_scenario, scenario_path("scenario1_rac.yaml"),
        "--out", str(tmp_path / "o"),
    ])
    assert code == cli.EXIT_CONFIG


def test_cmd_compare_divergence_exit(short_scenario, tmp_path, capsys):
    with open(short_scenario) as f:
        doc = yaml.safe_load(f)
    doc["theta_hat0"] = [-1e4, -1e4, -1e4]
    diverging = tmp_path / "diverge.yaml"
    diverging.write_text(yaml.safe_dump(doc))
    out = tmp_path / "o"
    code = cli.main(["compare", short_scenario, str(diverging), "--out", str(out)])
    assert code == cli.EXIT_DIVERGED
    assert "the second compared run diverged" in capsys.readouterr().err
    assert not (out / "compare.csv").exists()


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


def test_cmd_grad_check_divergence_in_a_replay_exits_3(short_scenario, monkeypatch,
                                                      capsys):
    # the second replay diverges, after the first has returned
    real_replay = simengine._replay_window
    calls = []

    def replay(cfg, stepper, snapshot, steps, theta_I, sens_mode=None):
        calls.append(sens_mode)
        if len(calls) == 2:
            raise DivergenceError("planted divergence in replay 2")
        return real_replay(cfg, stepper, snapshot, steps, theta_I, sens_mode)

    monkeypatch.setattr(simengine, "_replay_window", replay)
    code = cli.main(["grad-check", short_scenario, "--phase", "0"])
    assert code == cli.EXIT_DIVERGED
    assert len(calls) == 2
    assert "divergence: planted divergence in replay 2" in capsys.readouterr().err
