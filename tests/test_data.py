import dataclasses

import numpy as np
import pytest

from hetcal import (
    DegenerateDesign,
    FirstStageData,
    MismatchedLengths,
    NegativeVariance,
    NonFiniteValue,
    SecondStageData,
    TooFewReplicates,
    TooFewStandards,
    means,
    validate,
)


def minimal_pair():
    first = FirstStageData(x_fixed=[0, 1, 2], y=[0.1, 2.1, 4.1], delta_var=[0, 0, 0])
    second = SecondStageData(y0=[2.0, 2.2])
    return first, second


def test_validate_accepts_minimal_pair():
    first, second = minimal_pair()
    out = validate(first, second)
    assert out == (first, second)


def test_validate_is_idempotent_and_pure():
    first, second = minimal_pair()
    x_before = first.x_fixed.copy()
    validate(*validate(first, second))
    assert np.array_equal(first.x_fixed, x_before)


def test_validate_accepts_bundled_analyte(analytes):
    first, second = analytes["chromium"]
    assert first.n == 5
    assert second.k == 3
    validate(first, second)


def test_degenerate_design_rejected():
    first = FirstStageData(x_fixed=[1, 1, 1], y=[1, 2, 3], delta_var=[0, 0, 0])
    with pytest.raises(DegenerateDesign):
        validate(first, SecondStageData(y0=[1.0, 2.0]))


def test_mismatched_lengths_rejected():
    first = FirstStageData(x_fixed=[0, 1, 2], y=[1, 2], delta_var=[0, 0, 0])
    with pytest.raises(MismatchedLengths):
        validate(first, SecondStageData(y0=[1.0, 2.0]))


def test_too_few_standards_rejected():
    first = FirstStageData(x_fixed=[0, 1], y=[1, 2], delta_var=[0, 0])
    with pytest.raises(TooFewStandards):
        validate(first, SecondStageData(y0=[1.0, 2.0]))


def test_too_few_replicates_rejected():
    first, _ = minimal_pair()
    with pytest.raises(TooFewReplicates):
        validate(first, SecondStageData(y0=[1.0]))


def test_negative_variance_rejected():
    first = FirstStageData(x_fixed=[0, 1, 2], y=[1, 2, 3], delta_var=[0, -1e-9, 0])
    with pytest.raises(NegativeVariance):
        validate(first, SecondStageData(y0=[1.0, 2.0]))


@pytest.mark.parametrize("vector", ["x_fixed", "y", "y0"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_value_rejected(vector, bad):
    first, second = minimal_pair()
    data = {"x_fixed": first.x_fixed.copy(), "y": first.y.copy(), "y0": second.y0.copy()}
    data[vector][1] = bad
    with pytest.raises(NonFiniteValue, match=rf"{vector}\[1\]"):
        validate(FirstStageData(data["x_fixed"], data["y"], first.delta_var),
                 SecondStageData(data["y0"]))


def test_means_tiny_example():
    first = FirstStageData(x_fixed=[0, 2, 0, 2], y=[0, 4, 0, 4], delta_var=[0] * 4)
    # means only need the vectors, not a valid design
    xbar, ybar, y0bar = means(first, SecondStageData(y0=[2, 2]))
    assert (xbar, ybar, y0bar) == (1.0, 2.0, 2.0)


def test_means_of_bundled_chromium(analytes):
    first, second = analytes["chromium"]
    xbar, _, y0bar = means(first, second)
    assert xbar == pytest.approx(0.452, abs=1e-12)
    assert y0bar == pytest.approx((10173.6 + 10516.9 + 10352.2) / 3, abs=1e-9)


def test_mean_translation_equivariance():
    rng = np.random.default_rng(3)
    first = FirstStageData(
        x_fixed=[0.1, 0.6, 1.4], y=rng.normal(size=3), delta_var=[0.1, 0.2, 0.3]
    )
    second = SecondStageData(y0=rng.normal(size=4))
    shift = 17.25
    shifted = FirstStageData(
        x_fixed=first.x_fixed, y=first.y + shift, delta_var=first.delta_var
    )
    _, ybar, _ = means(first, second)
    _, ybar_shifted, _ = means(shifted, second)
    assert ybar_shifted == pytest.approx(ybar + shift, rel=1e-14)


def test_containers_are_immutable():
    first, second = minimal_pair()
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.x_fixed = np.zeros(3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        second.y0 = np.zeros(2)
