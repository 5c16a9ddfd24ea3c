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
"""

import pytest

from hetcal import fit_hetero, fit_usual, variance_usual
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
