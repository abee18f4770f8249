import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from oqspectra import linalg

settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


@pytest.fixture
def rng():
    return np.random.default_rng(20240229)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            name = nodeid.split("::", 1)[1].removeprefix("test_criterion_")
            status = "PASS" if outcome == "passed" else "FAIL"
            lines[name] = status
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name in sorted(lines):
            terminalreporter.write_line(f"criterion {name}: {lines[name]}")


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """The whole suite runs inside ``linalg.one_blas_thread()``, as every CLI
    command does: numpy's OpenBLAS and, where a collected test module imported
    scipy, scipy's, each on one thread.  On matrices of at most 144 x 144,
    more threads only add wake-up stalls."""
    with linalg.one_blas_thread():
        yield
