import math
import re

import numpy as np
import pytest
from hypothesis import strategies as st

from hetcal import FirstStageData, SecondStageData
from hetcal.fixtures import ANALYTES, load_analyte


@pytest.fixture(scope="session")
def analytes():
    return {name: load_analyte(name) for name in ANALYTES}


def pytest_terminal_summary(terminalreporter):
    """Print one line per acceptance criterion summarizing its test group."""
    pattern = re.compile(r"test_acceptance\.py::test_criterion(\d+)")
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = pattern.search(report.nodeid)
            if match:
                crit = int(match.group(1))
                good, total = outcomes.get(crit, (0, 0))
                outcomes[crit] = (good + (status == "passed"), total + 1)
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for crit in sorted(outcomes):
        good, total = outcomes[crit]
        verdict = "PASS" if good == total else f"FAIL ({good}/{total} checks)"
        terminalreporter.write_line(f"criterion {crit}: {verdict}")


def rel_diff(a: float, b: float) -> float:
    denom = max(abs(a), abs(b))
    if denom == 0.0:
        return 0.0
    return abs(a - b) / denom


def make_model_dataset(rng, n=None, k=None, heteroscedastic=True):
    """Random dataset drawn from the controlled-variable model itself, with
    parameters kept away from zero so relative comparisons stay meaningful."""
    n = int(rng.integers(4, 12)) if n is None else n
    k = int(rng.integers(2, 7)) if k is None else k
    alpha = float(rng.uniform(0.5, 3.0))
    beta = float(rng.uniform(0.8, 4.0))
    sigma_eps2 = float(rng.uniform(0.01, 0.3))
    x = np.sort(rng.uniform(0.0, 3.0, n))
    x[-1] = x[0] + max(x[-1] - x[0], 0.5)  # keep the design spread out
    if heteroscedastic:
        delta_var = rng.uniform(0.0, 0.15, n)
    else:
        delta_var = np.zeros(n)
    x0 = float(rng.uniform(0.3, 2.5))
    delta = rng.standard_normal(n) * np.sqrt(delta_var)
    y = alpha + beta * (x - delta) + rng.standard_normal(n) * np.sqrt(sigma_eps2)
    y0 = alpha + beta * x0 + rng.standard_normal(k) * np.sqrt(sigma_eps2)
    first = FirstStageData(x_fixed=x, y=y, delta_var=delta_var)
    second = SecondStageData(y0=y0)
    truth = dict(alpha=alpha, beta=beta, x0=x0, sigma_eps2=sigma_eps2)
    return first, second, truth


@st.composite
def model_datasets(draw):
    """Datasets drawn from the heteroscedastic model on a 0..2 grid."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k = draw(st.integers(3, 12)), draw(st.integers(2, 8))
    beta = draw(st.floats(0.5, 50.0) | st.floats(-50.0, -0.5))
    x0, sigma_eps2 = draw(st.floats(0.0, 2.0)), draw(st.floats(1e-3, 1.0))
    x = np.linspace(0.0, 2.0, n)
    dv = rng.uniform(0.0, draw(st.floats(0.0, 0.2)), n)
    noise = math.sqrt(sigma_eps2)
    y = 1.0 + beta * (x - rng.standard_normal(n) * np.sqrt(dv)) + rng.standard_normal(n) * noise
    y0 = 1.0 + beta * x0 + rng.standard_normal(k) * noise
    return FirstStageData(x, y, dv), SecondStageData(y0)
