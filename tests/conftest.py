import os

import numpy as np
import pytest

from preadaptive_control import build_b747, default_config, run
from preadaptive_control.simengine import build_controller


@pytest.fixture(scope="session")
def b747():
    return build_b747()


@pytest.fixture(scope="session")
def rac1_result():
    """Scenario-1 run with preadaptation disabled (regular adaptive control)."""
    return run(default_config(1))


@pytest.fixture(scope="session")
def rac2_result():
    return run(default_config(2))


@pytest.fixture(scope="session")
def rac3_result():
    return run(default_config(3))


def windowed_cost(result, jumps, horizon):
    """Integral of |e| over each [jump, next jump) window, keyed by jump time."""
    t = result.trace["t"]
    e = np.abs(result.trace["e"])
    dt = t[1] - t[0]
    edges = list(jumps) + [horizon]
    return {
        a: float(np.sum(e[(t >= a) & (t < b)]) * dt)
        for a, b in zip(edges[:-1], edges[1:])
    }


def left_to_right_u(result):
    """The control of each trace row as the step sums it, left to right:
    k0 r - (K_0 + theta_hat_0) x_0 - (K_1 + theta_hat_1) x_1 - ..."""
    ctrl, _ = build_controller(result.config)
    K, head = ctrl.K[0].tolist(), float(ctrl.k0) * float(result.config.r)
    us = []
    for x, th in zip(result.trace["x"].tolist(), result.trace["theta_hat"].tolist()):
        u = head
        for K_j, th_j, x_j in zip(K, th, x):
            u -= (K_j + th_j) * x_j
        us.append(u)
    return us


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def counting_forks(monkeypatch):
    """os.fork, patched to record the pid each fork returns to the parent."""
    real_fork = os.fork
    forks = []

    def counting_fork():
        pid = real_fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks
