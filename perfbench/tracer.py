"""Per-layer timing by wrapping the simulator's functions from outside.

Each function is replaced at the name its caller looks it up by (``simengine``
imports ``detect_events`` and the other per-step functions by name, ``cli``
imports ``run``), so the wrappers see every call the program makes.  Self time
is a call's duration minus the time spent in wrapped calls it made; total
time includes them.  Per-step layers are only aggregated; calls of the coarse
layers are also kept as spans (name, start, end, parent) and written out when
the run ends.
"""

import time

from preadaptive_control import cli, simengine

# (object the caller looks the name up on, attribute, metric name, keep spans)
LAYERS = [
    (cli, "main", "cli.main", True),
    (cli, "load_scenario", "cli.load_scenario", True),
    (cli, "write_trace_csv", "cli.write_trace_csv", True),
    (cli, "write_summary", "cli.write_summary", True),
    (cli, "run", "simengine.run", True),
    (simengine, "run", "simengine.run", True),
    (simengine, "compare_results", "simengine.compare_results", True),
    (simengine, "grad_check", "simengine.grad_check", True),
    (simengine, "_replay_window", "simengine._replay_window", True),
    (simengine, "build_controller", "simengine.build_controller", True),
    (simengine, "lqr_gain", "controller.lqr_gain", True),
    (simengine, "solve_lyapunov", "controller.solve_lyapunov", True),
    (simengine, "theta_init", "preadapt.theta_init", True),
    (simengine, "close_phase", "learner.close_phase", True),
    (simengine, "theta_at", "dynamics.theta_at", False),
    (simengine, "update_velocity", "attention.update_velocity", False),
    (simengine, "detect_events", "attention.detect_events", False),
    (simengine, "accumulate_cost", "learner.accumulate_cost", False),
    (simengine, "control_input", "controller.control_input", False),
    (simengine, "check_bounded", "dynamics.check_bounded", False),
    (simengine._Stepper, "step", "simengine._Stepper.step", False),
]


def _step_name(args, kwargs):
    """`_Stepper.step(self, y, theta, with_sens=False, exact_sens=False)`."""
    with_sens = args[3] if len(args) > 3 else kwargs.get("with_sens", False)
    return "simengine._Stepper.step.sens" if with_sens else "simengine._Stepper.step.plain"


def layer_names():
    """Every metric name a traced run reports, in a fixed order."""
    names = []
    for _, _, name, _ in LAYERS:
        if name == "simengine._Stepper.step":
            names += [name + ".plain", name + ".sens"]
        elif name not in names:
            names.append(name)
    return names


class Tracer:
    """Installs the wrappers for the span of a ``with`` block."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in layer_names()}  # calls, self_s, total_s
        self.spans = []          # [name, start, end, parent index]
        self.run_results = []    # every RunResult simengine.run returned
        self._stack = []         # [time in wrapped children, span index or None]
        self._saved = []

    def _wrap(self, name, fn, keep_span):
        stats, stack, spans = self.stats, self._stack, self.spans
        clock = time.perf_counter
        is_step = name == "simengine._Stepper.step"
        is_run = name == "simengine.run"

        def wrapper(*args, **kwargs):
            key = _step_name(args, kwargs) if is_step else name
            span = None
            if keep_span:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                span = len(spans)
                spans.append([key, 0.0, 0.0, parent])
            frame = [0.0, span]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                took = t1 - t0
                rec = stats[key]
                rec[0] += 1
                rec[1] += took - frame[0]
                rec[2] += took
                if stack:
                    stack[-1][0] += took
                if span is not None:
                    spans[span][1:3] = [t0, t1]
            if is_run:
                self.run_results.append(out)
            return out

        return wrapper

    def __enter__(self):
        for owner, attr, name, keep_span in LAYERS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, keep_span))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False
