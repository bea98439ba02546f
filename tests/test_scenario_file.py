"""Scenario files: every field type-checked, and the summary's echo reloads."""

import importlib.resources
import re

import numpy as np
import pytest
import yaml

from preadaptive_control import ConfigError, PreadaptNet, PreadaptSettings, cli

BUNDLED = sorted(
    p.name for p in (importlib.resources.files("preadaptive_control") / "scenarios")
    .iterdir() if p.name.endswith(".yaml"))

#: the B-747 plant of build_b747, written out
B747 = {"A": [[0.0, 1.0, 0.0], [0.0, -0.32, 0.86], [0.0, -0.93, -0.43]],
        "B": [0.0, -0.02, -1.16], "B1r": [-1.0, 0.0, 0.0], "output_index": 2}
PIECES = [{"t": 0.0, "theta": [0.1, 0.1, 0.1]}, {"t": 5.0, "theta": [1.0, 1.0, 1.0]}]
#: a 30 s learner run with one onset
SHORT = {"plant": "b747", "schedule": {"pieces": PIECES, "horizon": 30.0},
         "preadapt": {"enabled": True, "learner": True, "seed": 0}}
WEIGHTS = PreadaptNet.random(3, 2, seed=5).to_dict()    # hidden 2, n 3


def weights(**changes):
    """WEIGHTS with ``changes``; a change to None drops the key."""
    w = {**WEIGHTS, **changes}
    return {key: value for key, value in w.items() if value is not None}


def write(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return str(path)


def assert_config_error(capsys, argv, field):
    """``argv`` exits 2 with a one-line message naming ``field`` first."""
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert re.match(rf"config error: (preadapt\.)?{re.escape(field)}\b", err), err
    assert err.count("\n") == 1


# --------------------------------------------------------------------------
# malformed values exit 2 and name their field

@pytest.mark.parametrize("changes, options, field", [
    ({"x0": ["abc", 0, 0]}, [], "x0"),
    ({"schedule": {"pieces": [PIECES[0], {"t": "abc", "theta": [1.0] * 3}],
                   "horizon": 30.0}}, [], "pieces[1].t"),
    ({"schedule": {"pieces": [{"t": 0.0, "theta": ["abc", 1, 1]}], "horizon": 30.0}},
     [], "pieces[0].theta"),
    ({"schedule": {"scenario": "abc"}}, [], "scenario"),
    ({"controller": {"Q": [["abc", 0, 0], [0, 1, 0], [0, 0, 1]]}}, [], "Q"),
    ({"controller": {"Q": [[1, 0], [0, 1]]}}, [], "Q"),
    ({"plant": {**B747, "output_index": "abc"}}, [], "output_index"),
    ({"schedule": {"pieces": PIECES, "horizon": 30.0,
                   "bounds": {"lower": "abc", "upper": [10.0] * 3}}},
     [], "bounds.lower"),
    ({"schedule": {"pieces": PIECES, "horizon": 30.0,
                   "bounds": {"lower": [-10.0] * 2, "upper": [10.0] * 3}}},
     [], "bounds"),
    ({"preadapt": {"enabled": True, "weights": weights(n=2, W=WEIGHTS["W"][:4])}},
     [], "weights"),
    ({"preadapt": {"enabled": True, "weights": weights(hidden="abc")}}, [], "weights"),
    ({"preadapt": {"enabled": True, "weights": weights(W=WEIGHTS["W"][:5])}},
     [], "weights"),
    ({"preadapt": {"enabled": True, "weights": weights(V=None)}}, [], "weights"),
    ({}, ["grad-check", "--delta", "nan"], "delta"),
    ({}, ["grad-check", "--delta", "inf"], "delta"),
    ({}, ["grad-check", "--phase", "-1"], "phase"),
])
def test_bad_input_exits_2_naming_the_field(tmp_path, capsys, changes, options, field):
    # each used to exit 1 with a traceback, exit 3, or check the wrong phase;
    # a 2 x 2 Q or a 2-entry bound for the 3-state plant used to fail in numpy
    path = write(tmp_path, {**SHORT, **changes})
    out = tmp_path / "o"
    command, *rest = options or ["run", "--out", str(out)]
    assert_config_error(capsys, [command, path, *rest], field)
    assert not out.exists()


def _field_rows():
    return ([(f.section, f.key) for f in cli._FIELDS]
            + [("plant", f.key) for f in cli._PLANT_FIELDS])


@pytest.mark.parametrize("section, key", _field_rows())
def test_every_field_is_type_checked(tmp_path, capsys, section, key):
    # generated from the field table, so a field added later is covered too
    for bad in ("abc", ["abc"]):
        doc = {"plant": dict(B747), "schedule": {"scenario": 1}}
        node = doc if section is None else doc.setdefault(section, {})
        node[key] = bad
        path = write(tmp_path, doc)
        assert_config_error(capsys, ["run", path, "--out", str(tmp_path / "o")], key)
        with pytest.raises(ConfigError, match=rf"^{key} must be"):
            cli.load_scenario(path)


# --------------------------------------------------------------------------
# preloaded weights

def test_weights_from_dict_rejects_malformed_entries():
    PreadaptNet.from_dict(WEIGHTS)
    for bad in (weights(W=None), weights(V=None), weights(W=WEIGHTS["W"][:-1]),
                weights(V=WEIGHTS["V"] + [0.0]), weights(V=["abc"] * 4),
                weights(hidden=2.5), weights(n=True), weights(extra=1), [1.0]):
        with pytest.raises(ConfigError, match="^weights"):
            PreadaptNet.from_dict(bad)


def test_hidden_must_agree_with_preloaded_weights(tmp_path, capsys):
    doc = {**SHORT, "preadapt": {"enabled": True, "hidden": 3, "weights": WEIGHTS}}
    out = tmp_path / "o"
    assert_config_error(capsys, ["run", write(tmp_path, doc), "--out", str(out)],
                        "weights")


def test_hidden_defaults_to_preloaded_width():
    net = PreadaptNet.from_dict(WEIGHTS)
    assert PreadaptSettings(enabled=True, net=net).hidden == 2
    assert PreadaptSettings(enabled=True, net=net, hidden=2).hidden == 2
    assert PreadaptSettings(enabled=True).hidden == 3


# --------------------------------------------------------------------------
# summary.yaml's config is itself a scenario file

EXPLICIT = {
    "plant": B747,
    "schedule": {"pieces": PIECES, "horizon": 10.0,
                 "bounds": {"lower": [-2.0] * 3, "upper": [2.0] * 3}},
    "controller": {"Q": [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 3.0]],
                   "R": 0.5, "gamma": 5.0, "k0": 0.25},
    "attention": {"c_e": 0.004, "c_ed": 0.03, "tau_f": 0.02, "estimator": "dirty",
                  "omega_n": 10.0, "zeta": 0.3},
    "preadapt": {"enabled": True, "learner": False, "gradient_mode": "exact",
                 "gamma_pa": 2.0, "hidden": 4, "seed": 7, "init_scale": 0.25,
                 "clip_norm": 1.5},
    "r": 0.2, "dt": 0.002, "x0": [0.01, 0.0, -0.01], "theta_hat0": [0.1, 0.2, 0.3],
}


@pytest.mark.parametrize("name", BUNDLED + ["explicit", "preloaded"])
def test_config_echo_reloads_to_the_same_config(tmp_path, name):
    if name == "explicit":
        path = write(tmp_path, EXPLICIT)
    elif name == "preloaded":   # the file leaves hidden to the weights
        path = write(tmp_path, {**SHORT, "preadapt": {"enabled": True,
                                                      "weights": WEIGHTS}})
    else:
        path = importlib.resources.files("preadaptive_control") / "scenarios" / name
    cfg = cli.load_scenario(path)
    echo = cli._config_echo(cfg)
    again = cli.load_scenario(write(tmp_path, echo, "echo.yaml"))
    assert cli._config_echo(again) == echo
    assert ("weights" in echo["preadapt"]) == (name == "preloaded")
    if name == "preloaded":
        assert echo["preadapt"]["hidden"] == 2
        assert np.array_equal(again.preadapt.net.W, cfg.preadapt.net.W)
        assert np.array_equal(again.preadapt.net.V, cfg.preadapt.net.V)
    if name == "explicit":
        assert echo == EXPLICIT
