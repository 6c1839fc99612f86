"""Shared fixtures plus the acceptance-verdict reporting hook."""

from __future__ import annotations

import numpy as np
import pytest

from safeshift import robust_regression as rr
from safeshift.core import Dataset

# One verdict line per acceptance criterion, collected by
# tests/test_acceptance.py and printed after the run (outside pytest's
# per-test capture, so the lines always show up in the terminal).
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def _make_line_dataset(n: int = 160, slope: float = 2.0, noise_std: float = 0.1,
                       seed: int = 5) -> Dataset:
    """y = slope * x + N(0, noise_std^2) on x in [-1, 1], second input zero."""
    g = np.random.default_rng(seed)
    x = np.linspace(-1.0, 1.0, n)
    inputs = np.column_stack([x, np.zeros(n)])
    targets = (slope * x + g.normal(0.0, noise_std, n))[:, None]
    return Dataset(inputs, targets)


@pytest.fixture(scope="session")
def make_line_dataset():
    """The line dataset builder, served as a fixture: test modules cannot
    import it from this conftest when another conftest.py shares the
    session (the module name `conftest` then resolves to either one)."""
    return _make_line_dataset


@pytest.fixture(scope="session")
def line_fit():
    """(model, dataset, true_mean) for the linear benchmark fit.

    Session-scoped because several tests (mean recovery, moment
    condition, Lipschitz diagnostic, variance bound) inspect the same
    trained model and training is the slow part.
    """
    ds = _make_line_dataset()
    cfg = rr.TrainConfig(epochs=800, seed=3)
    model = rr.fit(ds, None, None, cfg, mu0=0.0, sigma0_sq=1.0)
    true_mean = 2.0 * ds.inputs[:, 0]
    return model, ds, true_mean
