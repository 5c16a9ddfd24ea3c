"""Untimed output checks against ``reference.json`` and independent formulas.

* ``fit``: every output's x0 and var_x0 must match the values recorded at
  the commit that defined the benchmark.  Each proposed fit is also
  certified one-sided with the public ``score_residuals`` and
  ``log_likelihood``: its scaled score residual must be below the score
  tolerance and its log-likelihood at least the recorded one.  A proposed
  fit whose likelihood is clearly higher than the recorded one found a
  better maximum (the recorded local maxima), so only the floor applies.
* ``mc_*``: the usual-model and theoretical columns are recomputed here,
  without the program, and must agree tightly; the proposed-model columns
  must lie within ``PROPOSED_SE`` Monte Carlo standard errors of the
  recorded ones, which accepts a solver that moves a few replicates from a
  local to the global maximum.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

import inputs

REFERENCE = Path(__file__).resolve().parent / "reference.json"

SCORE_TOL = 1e-6  # hetcal's default FitOptions.score_tol
LL_SLACK = 1e-9  # relative slack on the likelihood floor
LL_BETTER = 1e-7  # relative gain that counts as a different, better maximum
FIT_RTOL = {"usual": 1e-9, "proposed": 1e-6}
TEXT_RTOL = 1e-6  # text output prints 7 significant digits
USUAL_RTOL = 1e-9
THEORETICAL_RTOL = 1e-7
PROPOSED_SE = 3.0
PROPOSED_COLUMNS = ("bias", "mse", "mean_est_var", "coverage_pct", "amplitude")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * abs(b) + atol


# ------------------------------------------------------------------ fits

def scaled_score(theta, first, second) -> tuple[float, float]:
    """Largest score residual and the scale hetcal's own test divides by."""
    import hetcal

    r_beta, r_sigma = hetcal.score_residuals(theta, first, second)
    gam = theta.sigma_eps2 + theta.beta ** 2 * first.delta_var
    d = first.y - theta.alpha - theta.beta * first.x_fixed
    scale = float(np.sum(np.abs(first.x_fixed * d / gam))) + 1.0
    return max(abs(r_beta), abs(r_sigma)), scale


def certify(theta, first, second, ll_floor: float) -> tuple[list[str], bool]:
    """Problems with a proposed-model fit, and whether it beats the floor."""
    import hetcal

    problems = []
    if not theta.sigma_eps2 > 0:
        return [f"sigma_eps2={theta.sigma_eps2} is not positive"], False
    score, scale = scaled_score(theta, first, second)
    if not score < SCORE_TOL * scale:
        problems.append(f"score residual {score:.3g} >= {SCORE_TOL:g} * {scale:.3g}")
    ll = hetcal.log_likelihood(theta, first, second)
    if not ll >= ll_floor - LL_SLACK * (abs(ll_floor) + 1.0):
        problems.append(f"log-likelihood {ll!r} below the recorded {ll_floor!r}")
    better = ll > ll_floor + LL_BETTER * (abs(ll_floor) + 1.0)
    return problems, better


def parse_fit_output(fmt: str, text: str) -> dict:
    """``{model: {"x0", "var_x0", "converged"}}`` plus ``"digest"``."""
    out = {}
    if fmt == "json":
        for rec in json.loads(text):
            out[rec["model"]] = {"x0": rec["x0"], "var_x0": rec["var_x0"],
                                 "converged": rec["converged"]}
            out["digest"] = rec["input_digest"]
    elif fmt == "csv":
        for rec in csv.DictReader(io.StringIO(text)):
            out[rec["model"]] = {"x0": float(rec["x0"]), "var_x0": float(rec["var_x0"]),
                                 "converged": rec["converged"] == "True"}
            out["digest"] = rec["input_digest"]
    else:
        rows = {}
        models = []
        for line in text.splitlines():
            fields = line.split()
            if line.startswith("input digest:"):
                out["digest"] = fields[-1]
            elif fields and fields[0] == "parameter":
                models = fields[1:]
            elif fields and fields[0] in ("x0", "var_x0", "converged"):
                rows[fields[0]] = fields[1:]
        for i, model in enumerate(models):
            out[model] = {"x0": float(rows["x0"][i]), "var_x0": float(rows["var_x0"][i]),
                          "converged": rows["converged"][i] == "True"}
    return out


def check_fit_output(entry: str, fmt: str, text: str, ref: dict,
                     better: bool, x_span: float) -> list[str]:
    """Compare one ``hetcal fit --model both`` output with the reference."""
    try:
        got = parse_fit_output(fmt, text)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"{entry}/{fmt}: unreadable output ({exc!r})"]
    problems = []
    if got.get("digest") != ref["digest"]:
        problems.append(f"{entry}/{fmt}: input digest differs from the reference")
    for model in ("usual", "proposed"):
        if model not in got:
            problems.append(f"{entry}/{fmt}: no {model} result")
            continue
        if not got[model]["converged"]:
            problems.append(f"{entry}/{fmt}: {model} fit not converged")
        if model == "proposed" and better:
            continue
        rtol = FIT_RTOL[model] + (TEXT_RTOL if fmt == "text" else 0.0)
        for key, atol in (("x0", 1e-9 * x_span), ("var_x0", 0.0)):
            value, want = got[model][key], ref[model][key]
            if not _close(value, want, rtol, atol):
                problems.append(f"{entry}/{fmt}: {model} {key} {value!r} != {want!r}")
    return problems


# ------------------------------------------------------------- scenarios

def _z(level: float) -> float:
    return NormalDist().inv_cdf(1.0 - (1.0 - level) / 2.0)


def replicate_stack(sc: inputs.Scenario):
    """All replicates of a scenario as (reps, n) and (reps, k) arrays."""
    ys, y0s = [], []
    for rep in range(sc.reps):
        x, dv, y, y0 = inputs.draw(sc.n, sc.k, sc.x0, sc.seed, rep)
        ys.append(y)
        y0s.append(y0)
    return x, dv, np.array(ys), np.array(y0s)


def usual_columns(sc: inputs.Scenario, x, y, y0, keep) -> dict:
    """Classical-model aggregates over the kept replicates, in closed form."""
    y, y0 = y[keep], y0[keep]
    n, k = sc.n, sc.k
    xbar = x.mean()
    xc = x - xbar
    sxx = np.mean(xc * xc)
    beta = np.mean(xc * (y - y.mean(axis=1, keepdims=True)), axis=1) / sxx
    alpha = y.mean(axis=1) - beta * xbar
    x0 = (y0.mean(axis=1) - alpha) / beta
    ssr = np.sum((y - alpha[:, None] - beta[:, None] * x) ** 2, axis=1)
    ss0 = np.sum((y0 - y0.mean(axis=1, keepdims=True)) ** 2, axis=1)
    s2 = (ssr + ss0) / (n + k)
    var = s2 / beta ** 2 * (1.0 / k + 1.0 / n + (xbar - x0) ** 2 / (n * sxx))
    err = x0 - sc.x0
    hw = _z(inputs.LEVEL) * np.sqrt(var)
    return {
        "bias": float(np.mean(err)),
        "mse": float(np.mean(err ** 2)),
        "mean_est_var": float(np.mean(var)),
        "coverage_pct": 100.0 * float(np.mean(np.abs(err) <= hw)),
        "amplitude": float(np.mean(hw)),
    }


def theoretical_columns(sc: inputs.Scenario) -> dict:
    """Large-sample variances at the true parameters: closed form for the
    usual model, the inverse expected information for the proposed one."""
    x, dv = inputs.design(sc.n)
    be, x0, s2, k, n = inputs.BETA, sc.x0, inputs.SIGMA_EPS2, sc.k, sc.n
    xbar = x.mean()
    sxx = np.mean((x - xbar) ** 2)
    var_u = s2 / be ** 2 * (1.0 / k + 1.0 / n + (xbar - x0) ** 2 / (n * sxx))
    g = s2 + be * be * dv
    info = np.zeros((4, 4))  # (alpha, beta, x0, sigma_eps2)
    info[0, 0] = np.sum(1 / g) + k / s2
    info[0, 1] = info[1, 0] = np.sum(x / g) + k * x0 / s2
    info[0, 2] = info[2, 0] = k * be / s2
    info[1, 1] = np.sum(x * x / g) + 2 * be * be * np.sum(dv * dv / g ** 2) + k * x0 * x0 / s2
    info[1, 2] = info[2, 1] = k * be * x0 / s2
    info[1, 3] = info[3, 1] = be * np.sum(dv / g ** 2)
    info[2, 2] = k * be * be / s2
    info[3, 3] = 0.5 * np.sum(1 / g ** 2) + 0.5 * k / s2 ** 2
    return {"usual": float(var_u), "proposed": float(np.linalg.inv(info)[2, 2])}


def summary_columns(row: dict) -> dict:
    """One summary-CSV row split into per-model columns."""
    def model(prefix):
        return {"bias": float(row[f"{prefix}_bias"]), "mse": float(row[f"{prefix}_mse"]),
                "mean_est_var": float(row[f"{prefix}_mean_est_var"]),
                "coverage_pct": float(row[f"{prefix}_coverage_pct"]),
                "amplitude": float(row[f"{prefix}_amplitude"])}
    return {
        "usual": model("usual"),
        "proposed": model("proposed"),
        "theoretical": {"usual": float(row["theoretical_var_usual"]),
                        "proposed": float(row["theoretical_var_proposed"])},
        "n_failed": int(row["n_failed"]),
    }


def check_scenario(sc: inputs.Scenario, row: dict, ref: dict | None) -> list[str]:
    """Problems with one scenario's summary row."""
    tag = sc.key
    try:
        ident = (float(row["x0"]), int(row["n"]), int(row["k"]),
                 int(row["n_reps"]), int(row["seed"]))
        got = summary_columns(row)
    except (KeyError, ValueError) as exc:
        return [f"{tag}: unreadable summary row ({exc!r})"]
    if ident != (sc.x0, sc.n, sc.k, sc.reps, sc.seed):
        return [f"{tag}: summary row describes {ident}"]
    if ref is None:
        return [f"{tag}: no reference recorded"]
    # failed replicates are left out of every column; the reference knows
    # which ones failed when it was recorded
    keep = np.ones(sc.reps, dtype=bool)
    if got["n_failed"] == len(ref["failed_reps"]):
        keep[ref["failed_reps"]] = False
    elif got["n_failed"]:
        return [f"{tag}: {got['n_failed']} replicates failed, "
                f"{len(ref['failed_reps'])} in the reference"]
    problems = []
    x, _, y, y0 = replicate_stack(sc)
    want = usual_columns(sc, x, y, y0, keep)
    scale = math.sqrt(want["mse"])
    for key, value in got["usual"].items():
        if key == "coverage_pct":
            ok = abs(value - want[key]) <= 100.0 / keep.sum() + 1e-9
        else:
            ok = _close(value, want[key], USUAL_RTOL, USUAL_RTOL * scale)
        if not ok:
            problems.append(f"{tag}: usual {key} {value!r} != {want[key]!r}")
    theo = theoretical_columns(sc)
    for key, value in got["theoretical"].items():
        if not _close(value, theo[key], THEORETICAL_RTOL):
            problems.append(f"{tag}: theoretical {key} {value!r} != {theo[key]!r}")
    for key in PROPOSED_COLUMNS:
        value, want_p, se = got["proposed"][key], ref["proposed"][key], ref["proposed_se"][key]
        if not (math.isfinite(value) and abs(value - want_p) <= PROPOSED_SE * se + 1e-12):
            problems.append(f"{tag}: proposed {key} {value!r} is more than "
                            f"{PROPOSED_SE:g} SE ({se:.3g}) from {want_p!r}")
    return problems


def read_summary(path: Path) -> list[dict]:
    with path.open() as fh:
        return list(csv.DictReader(fh))


# ------------------------------------------------------------- self-test

def self_test(first, second, fit, ll_floor: float) -> list[str]:
    """The certification must reject a fit whose response variance is moved
    off the optimum; returns problems if it does not."""
    problems = []
    for factor in (0.99, 1.01):
        theta = dataclasses.replace(fit.theta_hat,
                                    sigma_eps2=fit.theta_hat.sigma_eps2 * factor)
        rejected, _ = certify(theta, first, second, ll_floor)
        if not rejected:
            problems.append(f"self-test: sigma_eps2 x {factor} was accepted")
    return problems
