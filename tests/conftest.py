"""Shared fixtures plus the acceptance-report hook.

Acceptance tests register one verdict line per criterion; the
terminal-summary hook reprints the collected lines at the end of the run
so the verdicts stay visible regardless of output capture settings.
"""

import os

# One BLAS thread: on a few-core machine the thread pool's spin-up costs the
# suite's 500x500 builds and eigensolves more than it saves (1.1 s against
# 0.05 s for one test).  Set before anything below imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import time  # noqa: E402

import pytest  # noqa: E402

import contactopt.checks as checks  # noqa: E402
from contactopt.harness import run_bench  # noqa: E402
from contactopt.presets import experiment_preset  # noqa: E402

_ACCEPTANCE_LINES = []


class AcceptanceRecorder:
    """Collects one formatted pass/fail line per acceptance criterion."""

    def record(self, num: int, passed: bool, detail: str) -> bool:
        verdict = "PASS" if passed else "FAIL"
        line = f"criterion {num:2d}: {verdict} - {detail}"
        _ACCEPTANCE_LINES.append((num, line))
        print(line)
        return passed


@pytest.fixture(scope="session")
def acceptance():
    return AcceptanceRecorder()


@pytest.fixture(scope="session")
def desk_bench():
    """Desk-scale preset benchmarks, each run once per session (the
    quartic takes about a second per seed).

    Returns a function mapping (preset, master seed) to (outcomes, elapsed
    seconds) for ``experiment_preset(preset, scale="desk",
    master_seed=seed)``, so the acceptance criteria and the golden-output
    fence share their runs.
    """
    runs = {}

    def bench(preset: str, seed: int):
        if (preset, seed) not in runs:
            spec = experiment_preset(preset, scale="desk", master_seed=seed)
            t0 = time.perf_counter()
            outcomes = run_bench(spec)
            runs[preset, seed] = (outcomes, time.perf_counter() - t0)
        return runs[preset, seed]

    return bench


@pytest.fixture(scope="session")
def order_check():
    """One ``check_orders()`` run per session, shared by the order tests.

    Returns (results, the dt of every RK4 reference the run integrated,
    elapsed seconds); the sweep integrates one reference, at the coarsest
    tau / 100, and a counter wraps ``checks.reference_integrate`` for the
    length of the run only.
    """
    calls = []
    real = checks.reference_integrate

    def counting(*args, **kwargs):
        calls.append(args[4])
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "reference_integrate", counting)
        t0 = time.perf_counter()
        results = checks.check_orders()
        elapsed = time.perf_counter() - t0
    return results, calls, elapsed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for _, line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
