"""The run-loop tests of test_simengine, collected here once more and run
under the Python loop.

Under their own module they run the native loop wherever a C compiler
answers; here the compiler is hidden, so every stepper compiles
``_segment_source``'s loop.  The guards, the frozen step, the truncated
trace of a divergence and the shared compile cache are thus held to the
same assertions under both.
"""

import pytest

from preadaptive_control import simengine

from conftest import python_loop
from test_simengine import (  # noqa: F401
    resting_stepper,
    stepper,
    test_compiled_step_is_rk4_of_compiled_derivative,
    test_divergence_inside_a_phase_keeps_its_metrics,
    test_divergence_truncates_trace_and_reports,
    test_equal_steppers_share_their_compiled_loops,
    test_step_bounds_states_but_not_sensitivities,
    test_step_rejects_nonfinite_state,
    test_step_rejects_state_beyond_limit,
    test_step_runs_on_with_huge_finite_sensitivity,
    test_step_runs_on_with_states_at_the_limit,
)


@pytest.fixture(scope="module", autouse=True)
def _python_loop():
    # module scope: the stepper fixtures, module-scoped, compile under it
    with pytest.MonkeyPatch.context() as mp:
        python_loop(mp)
        yield
    simengine._compile.cache_clear()


def test_the_loops_here_are_pythons(stepper):
    segment = stepper.segment(False, False, True)
    assert segment.__qualname__ == "segment"
    assert segment.__code__.co_filename == "<string>"
    assert segment.native_error.startswith("no C compiler: ")
