"""Count the calls a kernel issues: the launch budget, without a wall clock.

At a few hundred particles a NumPy call costs more to launch than to run,
so the number of calls per RK2 step *is* the kernel's cost, and unlike a
timing it is the same number on every host.  ``sys.setprofile``'s
``c_call`` events cannot count it — a ufunc is not a builtin function and
raises none (``np.add`` is invisible, ``ndarray.take`` is not) — so this
counts the call instructions executed in the kernel modules' own frames:
every ``np.*`` call, method call and helper call the stepping loop and the
sampler make, whatever they dispatch to.
"""

import dis
import sys

from repro.grid import interpolation
from repro.tracers import integrate

KERNEL_FILES = frozenset({interpolation.__file__, integrate.__file__})
CALL_OPS = frozenset(
    {"CALL", "CALL_KW", "CALL_FUNCTION_EX", "CALL_FUNCTION", "CALL_FUNCTION_KW",
     "CALL_METHOD"}
)


def count_calls(fn) -> int:
    """Call instructions executed in the kernel modules while ``fn()`` runs."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        code = frame.f_code
        if code.co_filename not in KERNEL_FILES:
            return None
        frame.f_trace_opcodes = True
        if event == "opcode" and dis.opname[code.co_code[frame.f_lasti]] in CALL_OPS:
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


def calls_per_step(run) -> float:
    """Slope of ``count_calls(run(n_steps))`` between 50 and 150 steps."""
    for n_steps in (50, 150):
        for _ in range(integrate.PATHS_POOL + 1):  # past every first-use branch
            run(n_steps)
    return (count_calls(lambda: run(150)) - count_calls(lambda: run(50))) / 100
