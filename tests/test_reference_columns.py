"""What the reference tables' proposed-model fits are.

Criterion 1 in ``test_acceptance.py`` fails on purpose for the proposed
columns of the three bundled analytes.  These tests pin what is known of
those reference numbers, so that the account of the failures in the
acceptance module's docstring can be checked by running it:

* chromium: the reference alpha, beta and x0 are hetcal's proposed fit,
  and the reference ``var_x0`` is the classical variance formula
  (``variance_usual``, with no preparation-error terms) evaluated at that
  fit, not the proposed model's variance;
* cadmium and lead: the reference alpha, beta and x0 of the proposed
  column are those of the usual column, digit for digit, that is, the
  classical fit, which is not the proposed model's maximum.

It also pins which likelihood ``fit_hetero`` maximizes, as the paper's
estimator does: the likelihood along the closed-form intercept
ybar - beta * xbar (``profile_alpha_x0``), at which the full model's
intercept score is not zero.
"""

import numpy as np
import pytest

from hetcal import fit_hetero, fit_usual, profile_alpha_x0, variance_usual
from hetcal.hetero import SCORE_TOL
from hetcal.fixtures import load_analyte

from conftest import rel_diff
from test_acceptance import REFERENCE_FITS, SIG5


def test_chromium_reference_variance_is_the_classical_formula_at_the_proposed_fit():
    alpha, beta, x0, var_x0, _ = REFERENCE_FITS[("chromium", "proposed")]
    first, second = load_analyte("chromium")
    fit = fit_hetero(first, second)
    theta = fit.theta_hat
    for got, ref in ((theta.alpha, alpha), (theta.beta, beta), (theta.x0, x0)):
        assert rel_diff(got, ref) < SIG5
    assert rel_diff(variance_usual(theta, first, second.k), var_x0) < 1e-6
    assert rel_diff(fit.var_x0, var_x0) > SIG5


@pytest.mark.parametrize("analyte", ["cadmium", "lead"])
def test_cadmium_and_lead_reference_proposed_fits_are_the_usual_fits(analyte):
    proposed = REFERENCE_FITS[(analyte, "proposed")][:3]
    assert proposed == REFERENCE_FITS[(analyte, "usual")][:3]
    first, second = load_analyte(analyte)
    theta = fit_usual(first, second).theta_hat
    for got, ref in zip((theta.alpha, theta.beta, theta.x0), proposed):
        assert rel_diff(got, ref) < SIG5
    # the proposed model's maximum (criteria 4 and 7) lies elsewhere
    assert rel_diff(fit_hetero(first, second).theta_hat.x0, proposed[2]) > SIG5


def test_the_proposed_fit_takes_the_closed_form_intercept_not_the_full_maximum():
    first, second = load_analyte("cadmium")
    theta = fit_hetero(first, second).theta_hat
    assert (theta.alpha, theta.x0) == profile_alpha_x0(theta.beta, first, second)
    assert theta.alpha == first.ybar - theta.beta * first.xbar
    # the intercept score of the full likelihood, sum d_i / gamma_i, against
    # the size of its terms: far from the tolerance the fit's own scores meet
    d = first.y - theta.alpha - theta.beta * first.x_fixed
    terms = d / (theta.sigma_eps2 + theta.beta * theta.beta * first.delta_var)
    assert terms.sum() == pytest.approx(0.094, abs=5e-4)
    assert np.abs(terms).sum() == pytest.approx(40.9, abs=0.05)
    assert terms.sum() > 1e3 * SCORE_TOL * np.abs(terms).sum()
