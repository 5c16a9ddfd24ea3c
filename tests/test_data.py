import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from hetcal import (
    DegenerateDesign,
    FirstStageData,
    MismatchedLengths,
    NegativeVariance,
    NonFiniteValue,
    SecondStageData,
    TooFewReplicates,
    TooFewStandards,
    fit_hetero,
    fit_usual,
    validate,
)

from conftest import model_datasets


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
    # a length-1 vector would broadcast against the others in the model algebra
    for y in ([1, 2], [1.0]):
        with pytest.raises(MismatchedLengths):
            FirstStageData(x_fixed=[0, 1, 2], y=y, delta_var=[0, 0, 0])


def test_a_vector_that_is_not_one_dimensional_is_rejected():
    with pytest.raises(ValueError, match="expected a 1-D vector, got shape \\(1, 3\\)"):
        FirstStageData(x_fixed=[[0, 1, 2]], y=[1, 2, 3], delta_var=[0, 0, 0])


def test_too_few_standards_rejected():
    # an empty container is built too, and rejected here
    for n in (2, 0):
        first = FirstStageData(x_fixed=range(n), y=range(1, n + 1), delta_var=[0] * n)
        with pytest.raises(TooFewStandards):
            validate(first, SecondStageData(y0=[1.0, 2.0]))


def test_too_few_replicates_rejected():
    first, _ = minimal_pair()
    with pytest.raises(TooFewReplicates):
        validate(first, SecondStageData(y0=[1.0]))


def test_negative_variance_rejected():
    for bad in (-1e-9, np.inf, np.nan):
        with pytest.raises(NegativeVariance, match=r"delta_var\[1\]"):
            FirstStageData(x_fixed=[0, 1, 2], y=[1, 2, 3], delta_var=[0, bad, 0])


@pytest.mark.parametrize("vector", ["x_fixed", "y", "y0"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_value_rejected(vector, bad):
    first, second = minimal_pair()
    data = {"x_fixed": first.x_fixed.copy(), "y": first.y.copy(), "y0": second.y0.copy()}
    data[vector][1] = bad
    with pytest.raises(NonFiniteValue, match=rf"{vector}\[1\]"):
        FirstStageData(data["x_fixed"], data["y"], first.delta_var)
        SecondStageData(data["y0"])


def test_means_tiny_example():
    first = FirstStageData(x_fixed=[0, 2, 0, 2], y=[0, 4, 0, 4], delta_var=[0] * 4)
    # the containers' means need only the vectors, not a valid design
    second = SecondStageData(y0=[2, 2])
    assert (first.xbar, first.ybar, second.y0bar) == (1.0, 2.0, 2.0)


def test_means_of_bundled_chromium(analytes):
    first, second = analytes["chromium"]
    assert first.xbar == pytest.approx(0.452, abs=1e-12)
    assert second.y0bar == pytest.approx((10173.6 + 10516.9 + 10352.2) / 3, abs=1e-9)


def test_mean_translation_equivariance():
    rng = np.random.default_rng(3)
    first = FirstStageData(
        x_fixed=[0.1, 0.6, 1.4], y=rng.normal(size=3), delta_var=[0.1, 0.2, 0.3]
    )
    shift = 17.25
    shifted = FirstStageData(
        x_fixed=first.x_fixed, y=first.y + shift, delta_var=first.delta_var
    )
    assert shifted.ybar == pytest.approx(first.ybar + shift, rel=1e-14)


def test_containers_are_immutable():
    first, second = minimal_pair()
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.x_fixed = np.zeros(3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        second.y0 = np.zeros(2)


@settings(max_examples=100, deadline=None)
@given(data=model_datasets())
def test_stored_statistics_equal_a_fresh_recomputation(data):
    first, second = data
    x, y, y0 = first.x_fixed, first.y, second.y0
    assert first.xbar == float(x.mean()) and first.ybar == float(y.mean())
    assert np.array_equal(first.xc, x - x.mean()) and np.array_equal(first.yc, y - y.mean())
    assert first.slope_threshold == 1e-12 * float(np.ptp(y)) / float(np.ptp(x))
    assert second.y0bar == float(y0.mean())
    assert second.ss0 == float(np.sum((y0 - y0.mean()) ** 2))


def test_container_vectors_are_read_only():
    first, second = minimal_pair()
    for vec in (first.x_fixed, first.y, first.delta_var, first.xc, first.yc, second.y0):
        with pytest.raises(ValueError):
            vec[0] = 1.0


def test_containers_copy_the_callers_arrays():
    x, y, dv = np.linspace(0.0, 2.0, 5), np.array([0.2, 1.1, 2.0, 3.2, 3.9]), np.full(5, 1e-3)
    y0 = np.array([1.7, 1.9, 1.8])
    first, second = FirstStageData(x, y, dv), SecondStageData(y0)
    before = [fit(first, second) for fit in (fit_usual, fit_hetero)]
    for arr in (x, y, dv, y0):
        arr *= 3.0
    assert [fit(first, second) for fit in (fit_usual, fit_hetero)] == before


def test_building_a_container_near_the_float_limit_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        FirstStageData([-1e308, 0.0, 1.7e308], [1.7e308, -1.7e308, 1e308], [0.0, 0.0, 0.0])
        SecondStageData([1.7e308, 1.6e308, -1.7e308])


def test_validating_a_design_wider_than_the_float_range_does_not_warn():
    # the spread of these concentrations overflows; pyproject turns a RuntimeWarning into an error
    first = FirstStageData([-1e308, 0.0, 1.7e308], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    assert validate(first, SecondStageData([1.5, 1.7]))[0] is first
