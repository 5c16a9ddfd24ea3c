"""Acceptance suite: one test group per numbered criterion.

Every reference number asserted here was either taken from the bundled
reference tables for these datasets or computed from an independent oracle
coded inside the test (matrix inverse, brute-force grid search, classical
closed forms, Monte Carlo standard errors).

Known expected failures, documented rather than hidden: a subset of the
reference values for the PROPOSED model (the variance-related entries of
the bundled chromium fit, the whole proposed cadmium and lead columns, and
the proposed-model mean estimated variance / coverage / amplitude entries
of the simulated designs, the small ones above all) are not reproducible by any converged
maximizer of the model's likelihood, which criteria 4 and 7 pin.  What the
fit references are instead is pinned in ``test_reference_columns.py``:
chromium's proposed ``var_x0`` is the classical variance formula, with no
preparation-error terms, evaluated at the proposed estimates, which this
library reproduces; and the proposed alpha, beta and x0 of cadmium and lead
are the usual column's, digit for digit.  How the Monte Carlo reference
mean estimated variances were computed is not known: they sit far below the
theoretical variance their own table reports, and no variance formula tried
reproduces them.  The assertions are kept as stated so the discrepancy is
visible; the remaining checks pass.
"""

import math

import numpy as np
import pytest

from hetcal import (
    FirstStageData,
    Theta,
    fisher_information,
    fit_hetero,
    fit_usual,
    log_likelihood,
    make_scenario,
    profile_alpha_x0,
    score_residuals,
    simulate_replicates,
    summarize,
    variance_x0,
)
from hetcal.cli import main
from hetcal.fixtures import load_analyte

from conftest import make_model_dataset, rel_diff

SEED = 20260809

# ---------------------------------------------------------------------------
# criterion 1: reference-fit reproduction on the bundled datasets
# ---------------------------------------------------------------------------

REFERENCE_FITS = {
    # (analyte, model): alpha, beta, x0, var_x0, expanded uncertainty
    ("chromium", "usual"): (134.9469, 123003.7, 0.08302691, 4.357870e-06, 0.004091601),
    ("chromium", "proposed"): (124.2801, 123027.3, 0.08309769, 4.474395e-06, 0.004145942),
    ("cadmium", "usual"): (0.454801, 10.54381, 0.08123556, 7.898643e-05, 0.01741936),
    ("cadmium", "proposed"): (0.454801, 10.54381, 0.08123556, 4.440342e-06, 0.004130135),
    ("lead", "usual"): (-0.3822126, 94.29881, 0.05770535, 1.181068e-04, 0.02130068),
    ("lead", "proposed"): (-0.3822126, 94.29881, 0.05770535, 7.237226e-08, 0.000527281),
}

SIG5 = 5e-5  # five significant figures as a relative tolerance


@pytest.mark.parametrize("analyte,model", sorted(REFERENCE_FITS))
def test_criterion1_reference_fit(analyte, model):
    """Each bundled dataset must reproduce its reference column to 5
    significant figures.  The proposed-model variance entries (and the whole
    proposed cadmium/lead columns) are expected failures: those reference
    values are not the converged optimum (criteria 4 and 7 pin the optimum;
    see the module docstring)."""
    first, second = load_analyte(analyte)
    fit = fit_usual(first, second) if model == "usual" else fit_hetero(first, second)
    assert fit.converged
    got = (
        fit.theta_hat.alpha,
        fit.theta_hat.beta,
        fit.theta_hat.x0,
        fit.var_x0,
        fit.expanded_uncertainty,
    )
    labels = ("alpha", "beta", "x0", "var_x0", "U")
    ref = REFERENCE_FITS[(analyte, model)]
    bad = [
        f"{lab}: computed {g:.7g}, reference {r:.7g} (rel {rel_diff(g, r):.2e})"
        for lab, g, r in zip(labels, got, ref)
        if rel_diff(g, r) > SIG5
    ]
    print(f"criterion 1 [{analyte}/{model}]: {'PASS' if not bad else 'FAIL ' + '; '.join(bad)}")
    assert not bad, f"{analyte}/{model}: " + "; ".join(bad)


# ---------------------------------------------------------------------------
# criterion 2: closed-form variance equals the information-matrix inverse
# ---------------------------------------------------------------------------


def test_criterion2_variance_equals_information_inverse():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 40))
        k = int(rng.integers(1, 50))
        first = FirstStageData(
            x_fixed=rng.uniform(-2, 5, n),
            y=np.zeros(n),
            delta_var=rng.uniform(0, 0.5, n),
        )
        theta = Theta(
            alpha=float(rng.uniform(-3, 3)),
            beta=float(rng.uniform(0.2, 8)) * float(rng.choice([-1.0, 1.0])),
            x0=float(rng.uniform(-2, 4)),
            sigma_eps2=float(rng.uniform(0.01, 2.0)),
        )
        v_closed = variance_x0(theta, first, k)
        v_inverse = float(np.linalg.inv(fisher_information(theta, first, k))[2, 2])
        worst = max(worst, rel_diff(v_closed, v_inverse))
    print(f"criterion 2: worst relative difference {worst:.3e} "
          f"{'PASS' if worst < 1e-8 else 'FAIL'}")
    assert worst < 1e-8


# ---------------------------------------------------------------------------
# criterion 3: exact reduction to the classical model at zero preparation error
# ---------------------------------------------------------------------------


def test_criterion3_reduction_to_classical_model(analytes):
    cases = []
    for name, (first, second) in analytes.items():
        cases.append((f"fixture:{name}",
                      FirstStageData(first.x_fixed, first.y, np.zeros(first.n)),
                      second))
    rng = np.random.default_rng(SEED + 100)
    for i in range(50):
        first, second, _ = make_model_dataset(rng, heteroscedastic=False)
        cases.append((f"random:{i}", first, second))
    worst = 0.0
    for label, first, second in cases:
        res_h = fit_hetero(first, second)
        res_u = fit_usual(first, second)
        assert res_h.converged, label
        for attr in ("alpha", "beta", "x0", "sigma_eps2"):
            d = rel_diff(getattr(res_h.theta_hat, attr), getattr(res_u.theta_hat, attr))
            worst = max(worst, d)
            assert d < 1e-8, f"{label}: {attr} differs by {d:.2e}"
        d = rel_diff(res_h.var_x0, res_u.var_x0)
        worst = max(worst, d)
        assert d < 1e-8, f"{label}: var_x0 differs by {d:.2e}"
    print(f"criterion 3: {len(cases)} datasets, worst relative difference "
          f"{worst:.3e} PASS")


# ---------------------------------------------------------------------------
# criterion 4: stationarity and finite-difference gradient at every fit
# ---------------------------------------------------------------------------


def test_criterion4_stationarity_and_gradient(analytes):
    datasets = [(f"fixture:{name}", first, second)
                for name, (first, second) in analytes.items()]
    rng = np.random.default_rng(SEED + 200)
    for i in range(20):
        first, second, _ = make_model_dataset(rng)
        datasets.append((f"random:{i}", first, second))

    worst_score, worst_grad = 0.0, 0.0
    for label, first, second in datasets:
        res = fit_hetero(first, second)
        assert res.converged, label
        t = res.theta_hat
        rb, rs = score_residuals(t, first, second)
        gam = t.sigma_eps2 + t.beta**2 * first.delta_var
        d = first.y - t.alpha - t.beta * first.x_fixed
        scale = float(np.sum(np.abs(first.x_fixed * d / gam))) + 1.0
        score = max(abs(rb), abs(rs)) / (1e-6 * scale)
        worst_score = max(worst_score, score)
        assert score < 1.0, f"{label}: scaled score residual {score:.2e}"

        def objective(beta, s2):
            a, x0 = profile_alpha_x0(beta, first, second)
            return log_likelihood(Theta(a, beta, x0, s2), first, second)

        ll = objective(t.beta, t.sigma_eps2)
        bound = 1e-4 * max(1.0, abs(ll))
        hb = 1e-6 * max(1.0, abs(t.beta))
        hs = 1e-6 * max(1.0, t.sigma_eps2)
        g_beta = (objective(t.beta + hb, t.sigma_eps2)
                  - objective(t.beta - hb, t.sigma_eps2)) / (2 * hb)
        g_s2 = (objective(t.beta, t.sigma_eps2 + hs)
                - objective(t.beta, t.sigma_eps2 - hs)) / (2 * hs)
        grad = max(abs(g_beta), abs(g_s2)) / bound
        worst_grad = max(worst_grad, grad)
        assert grad < 1.0, f"{label}: scaled gradient {grad:.2e}"
    print(f"criterion 4: {len(datasets)} fits, worst scaled score {worst_score:.2e}, "
          f"worst scaled gradient {worst_grad:.2e} PASS")


# ---------------------------------------------------------------------------
# criteria 5 and 6: Monte Carlo reproduction of the reference study tables
# ---------------------------------------------------------------------------

# (x0, n, k, n_reps): reference bias/MSE/mean-estimated-variance per model and
# the theoretical variance column, all printed at 4 decimals
MC_STATS = {
    (0.01, 5, 2, 3000): ((-0.0156, 0.0350, 0.0398), (-0.0318, 0.0334, 0.0143), 0.0257),
    (0.8, 20, 20, 3000): ((0.0016, 0.0032, 0.0036), (0.0009, 0.0032, 0.0020), 0.0029),
    (1.9, 100, 100, 3000): ((0.0001, 0.0031, 0.0015), (0.0009, 0.0025, 0.0013), 0.0024),
    (0.01, 5000, 500, 300): ((0.0000, 0.0000, 0.0002), (0.0000, 0.0000, 0.0000), 0.0000),
    (0.8, 5000, 500, 300): ((0.0000, 0.0000, 0.0001), (0.0000, 0.0000, 0.0000), 0.0000),
    (1.9, 5000, 500, 300): ((0.0000, 0.0001, 0.0001), (0.0000, 0.0001, 0.0000), 0.0001),
}
# reference coverage % and interval half-width per model
MC_COVERAGE = {
    (0.01, 5, 2, 3000): ((89, 0.35), (78, 0.22)),
    (0.8, 20, 20, 3000): ((95, 0.12), (87, 0.09)),
    (1.9, 100, 100, 3000): ((83, 0.08), (84, 0.07)),
    (0.01, 5000, 500, 300): ((100, 0.02), (94, 0.01)),
    (0.8, 5000, 500, 300): ((100, 0.02), (93, 0.01)),
    (1.9, 5000, 500, 300): ((99, 0.02), (89, 0.01)),
}
PRINT_ROUNDING = 5e-5  # reference tables print four decimals

_MC_CACHE = {}


def mc_run(x0, n, k, n_reps, seed_offset):
    key = (x0, n, k, n_reps)
    if key not in _MC_CACHE:
        cfg = make_scenario(n=n, k=k, x0=x0, n_reps=n_reps, seed=SEED + seed_offset)
        table = simulate_replicates(cfg)
        _MC_CACHE[key] = (cfg, table, summarize(cfg, table))
    return _MC_CACHE[key]


MC_SEED_OFFSETS = {
    (0.01, 5, 2, 3000): 1,
    (0.8, 20, 20, 3000): 2,
    (1.9, 100, 100, 3000): 3,
    (0.01, 5000, 500, 300): 4,
    (0.8, 5000, 500, 300): 5,
    (1.9, 5000, 500, 300): 6,
}


@pytest.mark.parametrize("key", sorted(MC_STATS))
def test_criterion5_summary_statistics(key):
    """Bias, MSE, and mean estimated variance within three Monte Carlo
    standard errors of this run's own estimates (plus the reference tables'
    print rounding), and the theoretical variance to four decimals.

    Expected failures: the proposed-model mean estimated variance at the
    three small designs (and marginally at x0=1.9, n=5000).  A converged fit
    tracks the theoretical variance column; those reference entries sit far
    below it (module docstring)."""
    x0, n, k, n_reps = key
    cfg, table, summary = mc_run(x0, n, k, n_reps, MC_SEED_OFFSETS[key])
    ok = ~table.failed
    m = int(ok.sum())
    ref_u, ref_p, ref_theo = MC_STATS[key]
    bad = []
    for model, err, var, agg, ref in (
        ("usual", table.err_usual, table.var_usual, summary.usual, ref_u),
        ("proposed", table.err_proposed, table.var_proposed, summary.proposed, ref_p),
    ):
        e, v = err[ok], var[ok]
        checks = (
            ("bias", agg.bias, float(e.std(ddof=1)) / math.sqrt(m), ref[0]),
            ("mse", agg.mse, float((e**2).std(ddof=1)) / math.sqrt(m), ref[1]),
            ("mean_est_var", agg.mean_est_var, float(v.std(ddof=1)) / math.sqrt(m), ref[2]),
        )
        for label, ours, se, ref_val in checks:
            tol = 3.0 * se + PRINT_ROUNDING
            if abs(ours - ref_val) > tol:
                bad.append(
                    f"{model} {label}: computed {ours:+.5f}, reference {ref_val:+.5f}, "
                    f"tolerance {tol:.5f}"
                )
    theo = summary.theoretical_var_proposed
    if abs(theo - ref_theo) > PRINT_ROUNDING:
        bad.append(f"theoretical variance: computed {theo:.6f}, reference {ref_theo}")
    print(f"criterion 5 [x0={x0} n={n} k={k}]: "
          f"{'PASS' if not bad else 'FAIL ' + '; '.join(bad)}")
    assert not bad, f"x0={x0}, n={n}, k={k}: " + "; ".join(bad)


@pytest.mark.parametrize("key", sorted(MC_COVERAGE))
def test_criterion6_coverage_and_amplitude(key):
    """Proposed-model coverage within 3 percentage points and interval
    half-width within 15% of the reference values.

    Expected failures at five rows (module docstring): a converged fit's
    variance gives coverage near the nominal level, which is above those
    reference coverages."""
    x0, n, k, n_reps = key
    _, _, summary = mc_run(x0, n, k, n_reps, MC_SEED_OFFSETS[key])
    cov_ref, amp_ref = MC_COVERAGE[key][1]
    bad = []
    if abs(summary.proposed.coverage_pct - cov_ref) > 3.0:
        bad.append(
            f"coverage: computed {summary.proposed.coverage_pct:.1f}%, "
            f"reference {cov_ref}%"
        )
    amp_tol = 0.15 * amp_ref + 0.005
    if abs(summary.proposed.mean_amplitude - amp_ref) > amp_tol:
        bad.append(
            f"amplitude: computed {summary.proposed.mean_amplitude:.4f}, "
            f"reference {amp_ref}, tolerance {amp_tol:.4f}"
        )
    print(f"criterion 6 [x0={x0} n={n} k={k}]: "
          f"{'PASS' if not bad else 'FAIL ' + '; '.join(bad)}")
    assert not bad, f"x0={x0}, n={n}, k={k}: " + "; ".join(bad)


def test_criterion6_qualitative_contrast():
    """Growing the second stage at a fixed small first stage starves the
    classical interval: its coverage must fall below 90% while the
    proposed-model interval stays wide and keeps covering."""
    cfg = make_scenario(n=5, k=100, x0=1.9, n_reps=3000, seed=SEED + 7)
    table = simulate_replicates(cfg)
    summary = summarize(cfg, table)
    usual_cov = summary.usual.coverage_pct
    prop_cov = summary.proposed.coverage_pct
    print(f"criterion 6 [qualitative x0=1.9 n=5 k=100]: usual {usual_cov:.1f}%, "
          f"proposed {prop_cov:.1f}% "
          f"{'PASS' if usual_cov < 90.0 and prop_cov > usual_cov + 15.0 else 'FAIL'}")
    assert usual_cov < 90.0
    assert prop_cov > usual_cov + 15.0


# ---------------------------------------------------------------------------
# criterion 7: brute-force grid oracle for the profiled maximizer
# ---------------------------------------------------------------------------


def grid_oracle(first, second, n_grid=2000):
    """Profiled objective recoded from the data and maximized on a log grid
    with one refinement pass; independent of the library fit path."""
    xc = first.x_fixed - first.x_fixed.mean()
    yc = first.y - first.y.mean()
    dv = first.delta_var
    ss0 = float(np.sum((second.y0 - second.y0.mean()) ** 2))
    k = second.k

    def column(beta, s2_grid):
        gam = s2_grid[:, None] + beta**2 * dv[None, :]
        d = yc[None, :] - beta * xc[None, :]
        return (
            -0.5 * np.sum(np.log(gam), axis=1)
            - 0.5 * k * np.log(s2_grid)
            - 0.5 * (np.sum(d * d / gam, axis=1) + ss0 / s2_grid)
        )

    beta_ls = float(np.sum(xc * yc) / np.sum(xc * xc))
    betas = beta_ls * np.exp(np.linspace(math.log(0.3), math.log(3.0), n_grid))
    s2s = (ss0 / k) * np.exp(np.linspace(math.log(1e-2), math.log(1e2), n_grid))
    for _ in range(2):
        best = (-np.inf, 0, 0)
        for i, b in enumerate(betas):
            vals = column(b, s2s)
            j = int(np.argmax(vals))
            if vals[j] > best[0]:
                best = (vals[j], i, j)
        _, i, j = best
        db = math.log(betas[1] / betas[0])
        ds = math.log(s2s[1] / s2s[0])
        beta_c, s2_c = betas[i], s2s[j]
        betas = beta_c * np.exp(np.linspace(-2 * db, 2 * db, n_grid))
        s2s = s2_c * np.exp(np.linspace(-2 * ds, 2 * ds, n_grid))
    return beta_c, s2_c, db, ds


def test_criterion7_grid_oracle_equivalence():
    rng = np.random.default_rng(SEED + 300)
    worst_b, worst_s = 0.0, 0.0
    for i in range(20):
        first, second, _ = make_model_dataset(rng, n=int(rng.integers(3, 6)))
        res = fit_hetero(first, second)
        assert res.converged, f"dataset {i}"
        beta_g, s2_g, db, ds = grid_oracle(first, second)
        db_fit = abs(math.log(res.theta_hat.beta / beta_g)) / db
        ds_fit = abs(math.log(res.theta_hat.sigma_eps2 / s2_g)) / ds
        worst_b = max(worst_b, db_fit)
        worst_s = max(worst_s, ds_fit)
        assert db_fit < 3.0, f"dataset {i}: slope off by {db_fit:.1f} grid steps"
        assert ds_fit < 3.0, f"dataset {i}: variance off by {ds_fit:.1f} grid steps"
    print(f"criterion 7: 20 datasets, worst offsets {worst_b:.2f} / {worst_s:.2f} "
          f"grid steps PASS")


# ---------------------------------------------------------------------------
# criterion 8: byte-identical simulation output across thread counts
# ---------------------------------------------------------------------------


def test_criterion8_thread_determinism(tmp_path):
    scen = tmp_path / "scenarios.csv"
    scen.write_text(
        "n,k,x0,alpha,beta,sigma_eps2,n_reps,seed\n"
        "5,2,0.8,0.1,2.0,0.04,60,101\n"
        "20,20,1.9,0.1,2.0,0.04,40,102\n"
    )
    outputs = []
    for threads in ("1", "4", "8"):
        out = tmp_path / f"out_{threads}.csv"
        assert main(["simulate", "--scenarios", str(scen), "--out", str(out),
                     "--threads", threads]) == 0
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    print(f"criterion 8: byte-identical across 1/4/8 threads "
          f"{'PASS' if identical else 'FAIL'}")
    assert identical
