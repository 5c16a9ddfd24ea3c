"""File formats: calibration CSVs, scenario files, and fit-report rendering.

Standard uncertainties enter here and nowhere else: the standards file
carries a ``u`` column and this module squares it into the error variances,
so the estimation code only ever sees variances.
"""

from __future__ import annotations

import csv
import hashlib
import io as _io
import json
from dataclasses import dataclass

import numpy as np

from .data import FirstStageData, FitResult, SecondStageData
from .errors import NegativeUncertainty, ParseError, TooFewReplicates, TooFewStandards
from .simulate import ScenarioConfig, ScenarioSummary, make_scenario

STANDARDS_HEADER = ["X", "u", "Y"]
SAMPLE_HEADER = ["Y0"]
SCENARIO_FIELDS = ["n", "k", "x0", "alpha", "beta", "sigma_eps2", "n_reps", "seed"]
SCENARIO_OPTIONAL = ["ci_level", "x_grid", "delta_vars"]

SUMMARY_COLUMNS = [
    "x0", "n", "k",
    "usual_bias", "usual_mse", "proposed_bias", "proposed_mse",
    "usual_mean_est_var", "proposed_mean_est_var",
    "theoretical_var_usual", "theoretical_var_proposed",
    "usual_coverage_pct", "usual_amplitude",
    "proposed_coverage_pct", "proposed_amplitude",
    "n_reps", "n_failed", "seed",
]


def _decode(data) -> str:
    if isinstance(data, (bytes, bytearray)):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from exc
    return str(data)


def _read_rows(text: str, expected_header: list[str], what: str):
    reader = csv.reader(_io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{what}: empty file") from None
    header = [h.strip() for h in header]
    if header != expected_header:
        raise ParseError(
            f"{what}: expected header {','.join(expected_header)}, "
            f"got {','.join(header)}"
        )
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(cell.strip() == "" for cell in row):
            continue
        if len(row) != len(expected_header):
            raise ParseError(
                f"{what}: row {lineno} has {len(row)} fields, "
                f"expected {len(expected_header)}"
            )
        parsed = []
        for col, cell in zip(expected_header, row):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"{what}: row {lineno}, column {col}: "
                    f"{cell!r} is not a number"
                ) from None
        rows.append(parsed)
    return rows


def parse_first_stage(data) -> FirstStageData:
    """Read a standards CSV with header ``X,u,Y``; variances are ``u**2``."""
    rows = _read_rows(_decode(data), STANDARDS_HEADER, "standards file")
    if len(rows) < 3:
        raise TooFewStandards(
            f"standards file has {len(rows)} data rows, need at least 3"
        )
    arr = np.asarray(rows, dtype=float)
    u = arr[:, 1]
    if np.any(u < 0):
        bad = int(np.flatnonzero(u < 0)[0])
        raise NegativeUncertainty(
            f"standards file: row {bad + 2} has negative uncertainty {u[bad]}"
        )
    return FirstStageData(x_fixed=arr[:, 0], y=arr[:, 2], delta_var=u * u)


def parse_second_stage(data) -> SecondStageData:
    """Read a sample CSV with header ``Y0``; readings keep file order."""
    rows = _read_rows(_decode(data), SAMPLE_HEADER, "sample file")
    if len(rows) < 2:
        raise TooFewReplicates(
            f"sample file has {len(rows)} data rows, need at least 2"
        )
    return SecondStageData(y0=np.asarray(rows, dtype=float)[:, 0])


def _csv(header: list[str], rows) -> str:
    """CSV text with ``\\n`` line ends.  Floats are written as their shortest
    round-tripping decimal, so every file reads back exactly, and a text cell
    is quoted when it needs to be."""
    out = _io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def write_first_stage(first: FirstStageData) -> str:
    u = np.sqrt(first.delta_var)
    return _csv(STANDARDS_HEADER, zip(first.x_fixed.tolist(), u.tolist(), first.y.tolist()))


def write_second_stage(second: SecondStageData) -> str:
    return _csv(SAMPLE_HEADER, ([v] for v in second.y0.tolist()))


def _parse_vector(cell: str) -> np.ndarray:
    return np.asarray([float(v) for v in cell.split(";") if v.strip() != ""])


def parse_scenarios(data) -> list[ScenarioConfig]:
    """Read a scenario file: one record per line, study defaults applied.

    Required columns: ``n,k,x0,alpha,beta,sigma_eps2,n_reps,seed``.  Optional
    columns ``ci_level``, and semicolon-separated ``x_grid`` / ``delta_vars``
    vectors overriding the default design rules.
    """
    reader = csv.DictReader(_io.StringIO(_decode(data)))
    if reader.fieldnames is None:
        raise ParseError("scenario file: empty file")
    names = [f.strip() for f in reader.fieldnames]
    missing = [f for f in SCENARIO_FIELDS if f not in names]
    if missing:
        raise ParseError(f"scenario file: missing columns {missing}")
    unknown = [f for f in names if f not in SCENARIO_FIELDS + SCENARIO_OPTIONAL]
    if unknown:
        raise ParseError(f"scenario file: unknown columns {unknown}")
    configs = []
    for lineno, rec in enumerate(reader, start=2):
        if None in rec:  # DictReader files the cells past the header under None
            raise ParseError(f"scenario file: row {lineno} has {len(names) + len(rec[None])} "
                             f"fields, expected {len(names)}")
        try:
            n = int(rec["n"])
            grid = rec.get("x_grid")
            dvars = rec.get("delta_vars")
            configs.append(
                make_scenario(
                    n=n,
                    k=int(rec["k"]),
                    x0=float(rec["x0"]),
                    alpha=float(rec["alpha"]),
                    beta=float(rec["beta"]),
                    sigma_eps2=float(rec["sigma_eps2"]),
                    n_reps=int(rec["n_reps"]),
                    seed=int(rec["seed"]),
                    ci_level=float(rec["ci_level"]) if rec.get("ci_level") else 0.95,
                    x_grid=_parse_vector(grid) if grid else None,
                    delta_vars=_parse_vector(dvars) if dvars else None,
                )
            )
        except (TypeError, ValueError) as exc:
            raise ParseError(f"scenario file: row {lineno}: {exc}") from exc
    if not configs:
        raise ParseError("scenario file: no scenario records")
    return configs


def summary_row(cfg: ScenarioConfig, summary: ScenarioSummary) -> list:
    return [
        cfg.x0_true, cfg.n, cfg.k,
        summary.usual.bias, summary.usual.mse,
        summary.proposed.bias, summary.proposed.mse,
        summary.usual.mean_est_var, summary.proposed.mean_est_var,
        summary.theoretical_var_usual, summary.theoretical_var_proposed,
        summary.usual.coverage_pct, summary.usual.mean_amplitude,
        summary.proposed.coverage_pct, summary.proposed.mean_amplitude,
        cfg.n_reps, summary.n_failed, cfg.seed,
    ]


def format_summary_csv(rows: list[list]) -> str:
    """Render summary rows at full precision; output is deterministic."""
    return _csv(SUMMARY_COLUMNS, rows)


@dataclass(frozen=True)
class FitReport:
    """One rendered fit: which estimator ran, on what input, with what result."""

    model: str  # "usual" or "proposed"
    analyte_label: str
    fit: FitResult
    input_digest: str


def input_digest(standards_bytes: bytes, sample_bytes: bytes) -> str:
    h = hashlib.sha256()
    h.update(standards_bytes)
    h.update(b"\x00")
    h.update(sample_bytes)
    return h.hexdigest()


def _report_values(report: FitReport) -> dict:
    fit = report.fit
    return {
        "model": report.model,
        "alpha": float(fit.theta_hat.alpha),
        "beta": float(fit.theta_hat.beta),
        "x0": float(fit.theta_hat.x0),
        "var_x0": float(fit.var_x0),
        "ci": [float(fit.ci_lower), float(fit.ci_upper)],
        "expanded_uncertainty": float(fit.expanded_uncertainty),
        "converged": bool(fit.converged),
        "iterations": int(fit.iterations),
        "analyte": report.analyte_label,
        "input_digest": report.input_digest,
    }


def render_json(reports: list[FitReport]) -> str:
    return json.dumps([_report_values(r) for r in reports], indent=2) + "\n"


def render_csv(reports: list[FitReport]) -> str:
    cols = ["analyte", "model", "alpha", "beta", "x0", "var_x0",
            "ci_lower", "ci_upper", "expanded_uncertainty", "converged",
            "iterations", "input_digest"]
    rows = []
    for v in map(_report_values, reports):
        v["ci_lower"], v["ci_upper"] = v["ci"]
        rows.append([v[c] for c in cols])
    return _csv(cols, rows)


def _sig7(x: float) -> str:
    return f"{x:.7g}"


def render_text(reports: list[FitReport]) -> str:
    """Row-per-parameter table, one column per fitted model."""
    if not reports:
        return "no fits\n"
    values = [_report_values(r) for r in reports]
    out = [f"analyte: {values[0]['analyte']}",
           f"{'parameter':>12s}" + "".join(f"{v['model']:>16s}" for v in values)]
    for label, key in (("alpha", "alpha"), ("beta", "beta"), ("x0", "x0"), ("var_x0", "var_x0"),
                       ("U(x0)", "expanded_uncertainty")):
        out.append(f"{label:>12s}" + "".join(f"{_sig7(v[key]):>16s}" for v in values))
    out.append(f"{'ci':>12s}" + "".join(f"  [{_sig7(v['ci'][0])}, {_sig7(v['ci'][1])}]"
                                         for v in values))
    out.append(f"{'converged':>12s}" + "".join(f"{str(v['converged']):>16s}" for v in values))
    out.append(f"input digest: {values[0]['input_digest']}")
    return "\n".join(out) + "\n"
