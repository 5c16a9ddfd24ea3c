"""File formats: calibration CSVs, scenario files, and fit-report rendering.

Standard uncertainties enter here and nowhere else: the standards file
carries a ``u`` column and this module squares it into the error variances,
so the estimation code only ever sees variances.

Every input file is read by ``_read_rows`` under one rule: column names are
trimmed and read by name, in any order, each at most once; blank lines are
skipped; trailing optional cells may be left out; errors name the file line.
Every cell of the standards and sample files must be a finite number, and an
error names the file, row and column of the first that is not.  The readers
leave how many rows a fit needs to ``validate``.
"""

from __future__ import annotations

import csv
import hashlib
import io as _io
import json
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .data import FirstStageData, FitResult, SecondStageData
from .errors import NegativeUncertainty, NegativeVariance, NonFiniteValue, ParseError
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
    """The text of a file, without the byte-order mark that spreadsheets
    write at the start of a "CSV UTF-8" file."""
    if isinstance(data, (bytes, bytearray)):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from exc
    else:
        text = str(data)
    return text.removeprefix("\ufeff")


def _read_rows(data, what: str, required: list[str], optional=()):
    """The trimmed header of a CSV file, which holds every ``required``
    column and nothing outside ``required + optional``, each at most once;
    and the file line and the cells of each non-blank row, in two lists.  A
    row may leave out the cells after its last required column, but may not
    run past the header."""
    reader = csv.reader(_io.StringIO(_decode(data)))
    header = next(reader, None)
    if header is None:
        raise ParseError(f"{what}: empty file")
    header = [name.strip() for name in header]
    for problem, names in (
        ("is missing", [c for c in required if c not in header]),
        ("has unknown", [c for c in header if c not in required and c not in optional]),
        ("repeats", [c for i, c in enumerate(header) if c in header[:i]]),
    ):
        if names:
            raise ParseError(f"{what}: header {problem} columns {names}")
    least = 1 + max(map(header.index, required))
    lines, rows = [], []
    for cells in reader:
        # a row is blank when all its cells are; most rows show they are not by their first
        if not (cells and cells[0].strip()) and not "".join(cells).strip():
            continue
        if not least <= len(cells) <= len(header):
            raise ParseError(f"{what}: row {reader.line_num} has {len(cells)} fields, "
                             f"expected {len(header)}")
        lines.append(reader.line_num)
        rows.append(cells)
    return header, lines, rows


def _read_numbers(data, what: str, columns: list[str]):
    """A file of numeric ``columns``, read by name: each row's file line, and
    the values of each column, in the order of ``columns``.  A cell must be
    a finite number.  Each column is converted and checked in one pass;
    where a cell is not a finite number, the rows are read again one by one,
    so that the error names the first bad cell in row-major order: a
    ``ParseError`` for text that is not a number, else a ``NonFiniteValue``,
    or a ``NegativeVariance`` in ``u``, which gives a variance."""
    header, lines, rows = _read_rows(data, what, columns)
    index = [header.index(col) for col in columns]
    try:
        values = [list(map(float, map(itemgetter(i), rows))) for i in index]
        if all(all(map(math.isfinite, col)) for col in values):
            return lines, values
    except ValueError:
        pass
    for line, cells in zip(lines, rows):
        for col, i in zip(columns, index):
            try:
                if math.isfinite(float(cells[i])):
                    continue
                error = NegativeVariance if col == "u" else NonFiniteValue
                problem = "is not a finite number"
            except ValueError:
                error, problem = ParseError, "is not a number"
            raise error(f"{what}: row {line}, column {col}: {cells[i]!r} {problem}")
    raise AssertionError("a column failed its conversion, but none of its cells does")


def parse_first_stage(data) -> FirstStageData:
    """Read a standards CSV with columns ``X,u,Y``; variances are ``u**2``."""
    lines, (x, u, y) = _read_numbers(data, "standards file", STANDARDS_HEADER)
    for line, v in zip(lines, u):
        if v < 0:
            raise NegativeUncertainty(f"standards file: row {line} has negative uncertainty {v}")
    dv = [v * v for v in u]
    if math.inf in dv:  # a square that overflows
        row = dv.index(math.inf)
        raise NegativeVariance(f"standards file: row {lines[row]}, column u: {u[row]} squared "
                               "is not a finite number")
    return FirstStageData(x_fixed=x, y=y, delta_var=dv)


def parse_second_stage(data) -> SecondStageData:
    """Read a sample CSV with column ``Y0``; readings keep file order."""
    return SecondStageData(y0=_read_numbers(data, "sample file", SAMPLE_HEADER)[1][0])


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


def _parse_vector(cell: str):
    """A semicolon-separated vector, or None for a cell blank after trimming."""
    return np.asarray([float(v) for v in cell.split(";") if v.strip()]) if cell.strip() else None


def parse_scenarios(data) -> list[ScenarioConfig]:
    """Read a scenario file: one record per line, study defaults applied.

    Required columns: ``n,k,x0,alpha,beta,sigma_eps2,n_reps,seed``.  Optional
    columns ``ci_level``, and semicolon-separated ``x_grid`` / ``delta_vars``
    vectors overriding the default design rules.
    """
    header, lines, rows = _read_rows(data, "scenario file", SCENARIO_FIELDS, SCENARIO_OPTIONAL)
    configs = []
    for line, cells in zip(lines, rows):
        rec = dict.fromkeys(SCENARIO_OPTIONAL, "")  # optional cells left out are empty
        rec.update(zip(header, cells))
        try:
            configs.append(make_scenario(
                n=int(rec["n"]), k=int(rec["k"]), x0=float(rec["x0"]), alpha=float(rec["alpha"]),
                beta=float(rec["beta"]), sigma_eps2=float(rec["sigma_eps2"]),
                n_reps=int(rec["n_reps"]), seed=int(rec["seed"]),
                ci_level=float(rec["ci_level"].strip() or 0.95),
                x_grid=_parse_vector(rec["x_grid"]), delta_vars=_parse_vector(rec["delta_vars"])))
        except ValueError as exc:
            raise ParseError(f"scenario file: row {line}: {exc}") from exc
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
