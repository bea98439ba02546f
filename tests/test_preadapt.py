import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import preadaptive_control
from preadaptive_control import (
    ConfigError,
    PreadaptNet,
    apply_preadaptation,
    sigmoid,
    theta_init,
)


# --------------------------------------------------------------------------
# sigmoid

def test_sigmoid_origin():
    origin = sigmoid(0.0)
    assert isinstance(origin, np.float64) and origin == 0.5


def test_sigmoid_symmetry():
    x = np.array([-3.0, -0.7, 0.2, 5.0])
    assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-15)


def test_sigmoid_saturates_without_overflow():
    v = sigmoid(1000.0)
    assert np.isfinite(v)
    assert 1.0 - 1e-12 < v <= 1.0
    assert sigmoid(-1000.0) >= 0.0


@pytest.mark.parametrize(
    "v", [0.0, -0.0, 709.0, -709.0, 745.0, -745.0, 746.0, -746.0, math.inf, -math.inf])
def test_sigmoid_edge_values_match_closed_form(v):
    # e^v / (1 + e^v) never overflows for v < 0
    ev = math.exp(-abs(v))
    closed = 1.0 / (1.0 + ev) if v >= 0 else ev / (1.0 + ev)
    s = sigmoid(v)
    assert isinstance(s, np.float64)
    if v < -709.78:
        # exp(-v) overflows: 0.0, within one subnormal of the true value
        assert s == 0.0 and math.copysign(1.0, s) == 1.0
        assert closed <= 5e-324
    else:
        assert s == closed


def test_sigmoid_nan_stays_nan():
    assert math.isnan(sigmoid(math.nan))
    out = sigmoid(np.array([1.0, math.nan]))
    assert math.isnan(out[1]) and out[0] == sigmoid(1.0)


@pytest.mark.parametrize("shape", [(), (4,), (2, 3)])
def test_sigmoid_keeps_shape_and_dtype(shape):
    x = np.linspace(-3.0, 3.0, int(np.prod(shape))).reshape(shape)
    out = sigmoid(x)
    assert np.shape(out) == shape and out.dtype == np.float64
    assert isinstance(out, np.float64 if shape == () else np.ndarray)


def test_sigmoid_equals_scipy_expit_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(20201)
    x = np.concatenate([rng.uniform(-800.0, 800.0, 100_000),
                        rng.uniform(-40.0, 40.0, 20_000)]).reshape(-1, 40)
    assert np.array_equal(sigmoid(x).view(np.uint64), special.expit(x).view(np.uint64))


def test_package_import_leaves_scipy_unloaded():
    code = (
        "import sys\n"
        "import preadaptive_control, preadaptive_control.cli\n"
        "print(sorted(k for k in sys.modules if k.startswith('scipy')))\n"
    )
    src = str(Path(preadaptive_control.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


# --------------------------------------------------------------------------
# network construction

def test_net_shape_validation():
    with pytest.raises(ConfigError):
        PreadaptNet(W=np.zeros((3, 3)), V=np.zeros((3, 3)))  # input dim must be 2
    with pytest.raises(ConfigError):
        PreadaptNet(W=np.zeros((4, 3)), V=np.zeros((2, 3)))  # hidden mismatch


def test_net_rejects_nonfinite_weights():
    with pytest.raises(ConfigError):
        PreadaptNet(W=np.full((3, 3), np.nan), V=np.zeros((2, 3)))


def test_random_init_reproducible_and_bounded():
    a = PreadaptNet.random(3, 3, seed=42)
    b = PreadaptNet.random(3, 3, seed=42)
    assert np.array_equal(a.W, b.W) and np.array_equal(a.V, b.V)
    assert np.all(np.abs(a.W) <= 0.5) and np.all(np.abs(a.V) <= 0.5)
    c = PreadaptNet.random(3, 3, seed=43)
    assert not np.array_equal(a.W, c.W)


def test_net_dict_round_trip():
    net = PreadaptNet.random(3, 4, seed=0)
    back = PreadaptNet.from_dict(net.to_dict())
    assert np.array_equal(net.W, back.W) and np.array_equal(net.V, back.V)


# --------------------------------------------------------------------------
# forward pass

def test_theta_init_zero_output_weights():
    net = PreadaptNet(W=np.zeros((3, 3)), V=np.ones((2, 3)))
    out, _, _ = theta_init(net, 0.7, -2.0)
    assert np.array_equal(out, np.zeros(3))


def test_theta_init_zero_hidden_weights():
    W = np.arange(9.0).reshape(3, 3)
    net = PreadaptNet(W=W, V=np.zeros((2, 3)))
    out, sigma_h, _ = theta_init(net, 0.1, 0.9)
    assert np.array_equal(sigma_h, 0.5 * np.ones(3))
    assert np.allclose(out, W.T @ (0.5 * np.ones(3)), atol=1e-15)


def test_theta_init_scalar_case():
    net = PreadaptNet(W=np.array([[2.0]]), V=np.zeros((2, 1)))
    out, _, _ = theta_init(net, 0.3, -0.4)
    assert out[0] == pytest.approx(1.0, abs=1e-15)


def test_theta_init_rate_feature_is_absolute():
    net = PreadaptNet.random(3, 3, seed=1)
    out_pos, _, in_pos = theta_init(net, 0.005, 0.03)
    out_neg, _, in_neg = theta_init(net, 0.005, -0.03)
    assert np.array_equal(out_pos, out_neg)
    assert in_pos[1] == in_neg[1] == 0.03


def test_theta_init_bounded_by_weight_norm():
    net = PreadaptNet.random(3, 5, seed=9, scale=2.0)
    bound = np.abs(net.W).sum(axis=0)  # hidden activations lie in (0, 1)
    for e, ed in [(0.0, 0.0), (100.0, -50.0), (-3.0, 0.4)]:
        out, _, _ = theta_init(net, e, ed)
        assert np.all(np.abs(out) <= bound + 1e-12)


def test_theta_init_deterministic():
    net = PreadaptNet.random(3, 3, seed=5)
    a, _, _ = theta_init(net, 0.005, 0.021)
    b, _, _ = theta_init(net, 0.005, 0.021)
    assert np.array_equal(a, b)


# --------------------------------------------------------------------------
# reinitialization rule

def test_apply_preadaptation_on_event():
    out = apply_preadaptation(1, 1, np.array([5.0, 5.0, 5.0]), np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(out, [1.0, 2.0, 3.0])


def test_apply_preadaptation_requires_eu():
    th = np.array([5.0, 5.0, 5.0])
    assert apply_preadaptation(1, 0, th, np.zeros(3)) is th
    assert apply_preadaptation(0, 0, th, np.zeros(3)) is th


@settings(max_examples=25, deadline=None)
@given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
def test_theta_init_matches_direct_formula(e, edot):
    net = PreadaptNet.random(3, 3, seed=11)
    out, sigma_h, input2 = theta_init(net, e, edot)
    expected = net.W.T @ (1.0 / (1.0 + np.exp(-(net.V.T @ np.array([e, abs(edot)])))))
    assert np.allclose(out, expected, atol=1e-12)
    assert np.all((sigma_h > 0.0) & (sigma_h < 1.0))
