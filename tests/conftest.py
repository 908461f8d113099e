import gc
import tracemalloc

import numpy as np
import pytest

import fouriercat as fc

ALPHA_STAR = np.sqrt(np.pi / 2)


def traced(fn):
    """Run ``fn()`` under tracemalloc and return (peak, retained) in bytes.

    ``peak`` is the traced peak during the call; ``retained`` is what is
    still allocated after it, and after a garbage collection, counted from
    a collected start.
    """
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, current - before


@pytest.fixture(scope="session")
def acceptance_report(request):
    """Shared verdict list echoed after the run, outside output capture."""
    lines = []
    request.config._acceptance_lines = lines
    return lines


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def d8():
    return fc.pauli_group()


@pytest.fixture(scope="session")
def d8_fourier(d8):
    return fc.build_fourier_transform(d8, fc.irrep_table(d8))


@pytest.fixture(scope="session")
def star_constellation(d8):
    return fc.make_constellation(d8, ALPHA_STAR, np.pi / 2)


@pytest.fixture(scope="session")
def star_code(star_constellation, d8_fourier):
    return fc.code_basis(star_constellation, d8_fourier)
