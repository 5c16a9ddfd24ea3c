"""Record ``bench/reference.json``: the program's outputs on every benchmark
input, which the check compares later versions against.

Run from the repository root with the program on the path:

    PYTHONPATH=src python3 bench/record_reference.py

The reference is a record of one commit; re-recording it on a later commit
would let that commit's errors through, so do it only when the benchmark's
inputs change, on a commit whose outputs are trusted.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

import check
import inputs

OUT = Path(__file__).resolve().parent / "reference.json"


def record_fit(root: Path) -> dict:
    import hetcal
    from hetcal.io import input_digest

    out = {}
    for entry in inputs.fit_bank_ids():
        standards, sample = inputs.fit_input(entry, root)
        first = hetcal.parse_first_stage(standards)
        second = hetcal.parse_second_stage(sample)
        usual = hetcal.fit_usual(first, second)
        proposed = hetcal.fit_hetero(first, second)
        if not (usual.converged and proposed.converged):
            raise SystemExit(f"{entry}: fit did not converge")
        theta = proposed.theta_hat
        ll = hetcal.log_likelihood(theta, first, second)
        problems, _ = check.certify(theta, first, second, ll)
        if problems:
            raise SystemExit(f"{entry}: {problems}")
        out[entry] = {
            "digest": input_digest(standards, sample),
            "usual": {"x0": usual.theta_hat.x0, "var_x0": usual.var_x0},
            "proposed": {"x0": theta.x0, "var_x0": proposed.var_x0, "log_likelihood": ll,
                         "sigma_eps2": theta.sigma_eps2, "iterations": proposed.iterations},
        }
    return out


def _se(values: np.ndarray) -> float:
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


def record_scenario(sc: inputs.Scenario) -> dict:
    import hetcal

    cfg = hetcal.make_scenario(n=sc.n, k=sc.k, x0=sc.x0, alpha=inputs.ALPHA,
                               beta=inputs.BETA, sigma_eps2=inputs.SIGMA_EPS2,
                               n_reps=sc.reps, seed=sc.seed)
    first, second = hetcal.generate_dataset(cfg, hetcal.replicate_rng(sc.seed, 0))
    _, _, y, y0 = inputs.draw(sc.n, sc.k, sc.x0, sc.seed, 0)
    if not (np.array_equal(first.y, y) and np.array_equal(second.y0, y0)):
        raise SystemExit(f"{sc.key}: benchmark draws differ from the program's")
    table = hetcal.simulate_replicates(cfg)
    summary = hetcal.summarize(cfg, table)
    ok = ~table.failed
    m = int(ok.sum())
    p = summary.proposed
    cov = p.coverage_pct / 100.0
    return {
        "failed_reps": [int(r) for r in np.flatnonzero(table.failed)],
        "proposed": {"bias": p.bias, "mse": p.mse, "mean_est_var": p.mean_est_var,
                     "coverage_pct": p.coverage_pct, "amplitude": p.mean_amplitude},
        "proposed_se": {
            "bias": _se(table.err_proposed[ok]),
            "mse": _se(table.err_proposed[ok] ** 2),
            "mean_est_var": _se(table.var_proposed[ok]),
            "coverage_pct": max(100.0 * math.sqrt(cov * (1.0 - cov) / m), 100.0 / m),
            "amplitude": _se(table.halfwidth_proposed[ok]),
        },
    }


def main() -> int:
    import hetcal

    root = Path.cwd()
    ref = {"hetcal_version": hetcal.__version__, "fit": record_fit(root), "mc": {}}
    scenarios = [inputs.local_max_scenario()]
    for spec in inputs.MC.values():
        for triple in range(spec.triples):
            scenarios += inputs.bank_round(spec, triple)
    for i, sc in enumerate(scenarios):
        ref["mc"][sc.key] = record_scenario(sc)
        print(f"{i + 1}/{len(scenarios)} {sc.key}", file=sys.stderr, flush=True)
    OUT.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
