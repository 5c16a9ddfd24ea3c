import argparse
import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetcal import (
    FirstStageData,
    NegativeUncertainty,
    NegativeVariance,
    NonFiniteValue,
    ParseError,
    SecondStageData,
    TooFewReplicates,
    TooFewStandards,
    fit_usual,
    fit_hetero,
    parse_first_stage,
    parse_scenarios,
    parse_second_stage,
    validate,
)
from hetcal.cli import main
from hetcal.fixtures import fixture_bytes, load_analyte
from hetcal.io import render_text, write_first_stage, write_second_stage

from conftest import rel_diff

# ------------------------------------------------------------- parsing


def test_parse_standards_squares_uncertainty():
    first = parse_first_stage(fixture_bytes("chromium_standards.csv"))
    assert first.n == 5
    assert first.x_fixed[0] == 0.05
    assert first.y[0] == 6455.900
    assert first.delta_var[0] == 0.00016**2
    assert first.delta_var[0] == pytest.approx(2.56e-08, rel=1e-12)


def test_parse_standards_header_only_rejected(tmp_path, capsys):
    # the reader checks the file format only; the count rule is validate's,
    # and hetcal fit reports its error in one line
    first = parse_first_stage(b"X,u,Y\n")
    assert first.n == 0
    with pytest.raises(TooFewStandards, match="need at least 3 standards, got 0"):
        validate(first, parse_second_stage("Y0\n1.0\n2.0\n"))
    std, samp = tmp_path / "header.csv", fixture_paths(tmp_path)[1]
    std.write_text("X,u,Y\n")
    assert main(["fit", "--standards", str(std), "--sample", samp]) == 1
    assert capsys.readouterr() == ("", "error: need at least 3 standards, got 0\n")


def test_parse_standards_zero_uncertainty_is_valid_reduction_path():
    text = "X,u,Y\n0,0,1.0\n1,0,3.1\n2,0,4.9\n"
    first = parse_first_stage(text)
    assert np.all(first.delta_var == 0.0)
    second = parse_second_stage("Y0\n3.0\n3.2\n")
    res_u = fit_usual(first, second)
    res_h = fit_hetero(first, second)
    assert rel_diff(res_h.theta_hat.x0, res_u.theta_hat.x0) < 1e-8
    assert rel_diff(res_h.var_x0, res_u.var_x0) < 1e-8


def test_parse_standards_negative_uncertainty_rejected():
    with pytest.raises(NegativeUncertainty, match="row 3 "):
        parse_first_stage("X,u,Y\n0,0,1\n1,-1e-4,2\n2,0,3\n")
    # the row named is the file line, blank lines counted
    with pytest.raises(NegativeUncertainty, match="row 4 "):
        parse_first_stage("X,u,Y\n0,0,1\n\n1,-1e-4,2\n2,0,3\n")


def test_parse_standards_bad_cell_has_row_and_column():
    with pytest.raises(ParseError, match="row 3.*column u"):
        parse_first_stage("X,u,Y\n0,0,1\n1,oops,2\n2,0,3\n")
    with pytest.raises(ParseError, match="row 5.*column Y"):
        parse_first_stage("X,u,Y\n0,0,1\n\n  \n1,0,oops\n2,0,3\n")


def test_parse_standards_wrong_header_rejected():
    with pytest.raises(ParseError, match="header is missing"):
        parse_first_stage("conc,u,signal\n0,0,1\n")
    with pytest.raises(ParseError, match="header has unknown columns \\['Z'\\]"):
        parse_first_stage("X,u,Y,Z\n0,0,1,0\n1,0,2,0\n2,0,3,0\n")
    with pytest.raises(ParseError, match="header repeats columns \\['Y'\\]"):
        parse_first_stage("X,u,Y,Y\n0,0,1,1\n1,0,2,2\n2,0,3,3\n")
    with pytest.raises(ParseError, match="row 3 has 2 fields, expected 3"):
        parse_first_stage("X,u,Y\n0,0,1\n1,0\n2,0,3\n")


def test_parse_standards_reads_columns_by_trimmed_name():
    text = "X,u,Y\n0,0,1.0\n1,0.1,3.1\n2,0.2,4.9\n"
    want = parse_first_stage(text)
    for other in (" X , u,Y \n0,0,1.0\n1,0.1,3.1\n2,0.2,4.9\n",
                  "Y,u,X\n1.0,0,0\n3.1,0.1,1\n4.9,0.2,2\n"):
        got = parse_first_stage(other)
        for name in ("x_fixed", "y", "delta_var"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (other, name)
    assert np.array_equal(parse_second_stage(" Y0 \n1.0\n\n2.0\n").y0, [1.0, 2.0])


def test_parse_errors_name_the_first_bad_cell_in_row_major_order():
    # columns are taken in X,u,Y order within a row, whatever the header's order
    with pytest.raises(ParseError, match="row 3, column X: 'b' is not a number"):
        parse_first_stage("Y,u,X\n1,0,0\n2,a,b\n3,0,2\n")
    # an earlier row wins over an earlier column
    with pytest.raises(ParseError, match="row 4, column Y: 'a' is not a number"):
        parse_first_stage("X,u,Y\n0,0,1\n\n1,0,a\nb,0,3\n")
    with pytest.raises(ParseError, match="row 3, column Y0: 'a' is not a number"):
        parse_second_stage("Y0\n1\na\nb\n")
    # the cell error comes before the row count
    with pytest.raises(ParseError, match="row 2, column u"):
        parse_first_stage("X,u,Y\n0,oops,1\n1,0,2\n")
    with pytest.raises(ParseError, match="row 2, column Y0"):
        parse_second_stage("Y0\noops\n")
    # a negative u names its file line, with the columns in another order
    with pytest.raises(NegativeUncertainty, match="row 5 has negative uncertainty -0.5"):
        parse_first_stage(" u , Y, X\n0,1,0\n\n0,2,1\n -5e-1 ,3,2\n")


def test_parse_standards_rejects_a_u_whose_square_overflows_without_a_warning():
    # pyproject turns a RuntimeWarning into an error
    with pytest.raises(NegativeVariance, match=re.escape(
            "standards file: row 3, column u: 1e+200 squared is not a finite number")):
        parse_first_stage("X,u,Y\n0,0,1\n1,1e200,2\n2,0,3\n")


@pytest.mark.parametrize("parse, text, error, message", [
    (parse_first_stage, "X,u,Y\n0,0,1\nnan,0,2\n2,0,3\n", NonFiniteValue,
     "standards file: row 3, column X: 'nan' is not a finite number"),
    (parse_first_stage, "X,u,Y\n0,0,1\n1,0,-inf\n2,0,3\n", NonFiniteValue,
     "standards file: row 3, column Y: '-inf' is not a finite number"),
    # u gives a variance, so a u that is not finite is a variance that is not
    (parse_first_stage, "X,u,Y\n0,0,1\n1,nan,2\n2,0,3\n", NegativeVariance,
     "standards file: row 3, column u: 'nan' is not a finite number"),
    (parse_second_stage, "Y0\n1\ninf\n", NonFiniteValue,
     "sample file: row 3, column Y0: 'inf' is not a finite number"),
    # a number too large for a float reads as inf
    (parse_second_stage, "Y0\n1\n1e400\n", NonFiniteValue,
     "sample file: row 3, column Y0: '1e400' is not a finite number"),
    # the first bad cell in row-major order, whether not a number or not finite
    (parse_first_stage, "X,u,Y\n0,0,1\nnan,0,oops\n2,0,3\n", NonFiniteValue,
     "standards file: row 3, column X: 'nan' is not a finite number"),
    (parse_first_stage, "X,u,Y\n0,0,1\n1,0,nan\noops,0,3\n", NonFiniteValue,
     "standards file: row 3, column Y: 'nan' is not a finite number"),
    (parse_second_stage, "Y0\n1\nnan\noops\n", NonFiniteValue,
     "sample file: row 3, column Y0: 'nan' is not a finite number"),
    (parse_first_stage, "X,u,Y\n0,0,1\n1,0,oops\nnan,0,3\n", ParseError,
     "standards file: row 3, column Y: 'oops' is not a number"),
])
def test_a_cell_that_is_not_a_finite_number_is_named_by_row_and_column(parse, text, error,
                                                                       message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        parse(text)


def _cell_text(value: float, form: int) -> str:
    """One way a hand-written or exported file may spell ``value``."""
    if form == 0:
        return repr(value)
    if form == 1:
        return f"{value:.16e}"
    if form == 2:
        return f"{value:.5E}"
    if form == 3:
        return f"{value:.17g}"
    return f"{int(value):_}" if abs(value) < 1e15 else repr(value)


_cells = st.tuples(st.floats(allow_nan=False, allow_infinity=False, width=64),
                   st.integers(0, 4), st.sampled_from(["", " ", "  ", "\t"]),
                   st.sampled_from(["", " ", "\t "]))
_u_cells = st.tuples(st.floats(0.0, 1e150) | st.sampled_from([-0.0, 5e-324, 1e-310]),
                     st.integers(0, 4), st.sampled_from(["", " "]), st.sampled_from(["", " "]))


def _csv_file(header: list[str], columns: list[list], blanks, blank_line: str):
    """CSV text of ``columns`` (cells drawn as ``(value, form, pad, pad)``),
    under ``header`` padded, with a blank line before each row in ``blanks``;
    returns the text and the cells as written, one list per column."""
    texts = [[f"{lead}{_cell_text(v, form)}{trail}" for v, form, lead, trail in col]
             for col in columns]
    lines = [", ".join(f" {name} " for name in header)]
    for i, row in enumerate(zip(*texts)):
        if i in blanks:
            lines.append(blank_line)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n", texts


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(3, 12), k=st.integers(2, 6),
       order=st.permutations(["X", "u", "Y"]),
       blank=st.sampled_from(["", "   ", ",,", " , ,\t"]))
def test_column_reader_keeps_the_numbers_of_each_cell(data, n, k, order, blank):
    cells = {"X": data.draw(st.lists(_cells, min_size=n, max_size=n)),
             "u": data.draw(st.lists(_u_cells, min_size=n, max_size=n)),
             "Y": data.draw(st.lists(_cells, min_size=n, max_size=n))}
    blanks = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
    text, written = _csv_file(order, [cells[c] for c in order], blanks, blank)
    by_name = dict(zip(order, written))
    x, u, y = (np.array([float(c) for c in by_name[c]]) for c in ("X", "u", "Y"))
    first = parse_first_stage(text)
    want = FirstStageData(x_fixed=x, y=y, delta_var=u * u)
    for name, vec in (("x_fixed", x), ("y", y), ("delta_var", u * u)):
        assert getattr(first, name).tobytes() == vec.tobytes(), name
    for name in ("x_fixed", "y", "delta_var", "xbar", "ybar", "xc", "yc", "sxx", "sxy",
                 "slope_threshold"):
        assert np.asarray(getattr(first, name)).tobytes() == \
            np.asarray(getattr(want, name)).tobytes(), name

    readings = data.draw(st.lists(_cells, min_size=k, max_size=k))
    text, (written,) = _csv_file(["Y0"], [readings], data.draw(st.sets(st.integers(0, k - 1))),
                                 blank.replace(",", ""))
    y0 = np.array([float(c) for c in written])
    second, want = parse_second_stage(text), SecondStageData(y0=y0)
    for name in ("y0", "y0bar", "ss0"):
        assert np.asarray(getattr(second, name)).tobytes() == \
            np.asarray(getattr(want, name)).tobytes(), name


def test_parse_sample_keeps_order():
    second = parse_second_stage(fixture_bytes("chromium_sample.csv"))
    assert second.k == 3
    assert np.array_equal(second.y0, [10173.6, 10516.9, 10352.2])


def test_parse_sample_two_rows_ok_and_fewer_rejected(tmp_path, capsys):
    # as for the standards, one reading is rejected by validate, not the reader
    first, second = load_analyte("chromium")
    assert validate(first, parse_second_stage("Y0\n1.0\n2.0\n"))[1].k == 2
    one = parse_second_stage("Y0\n1.0\n")
    assert one.k == 1
    with pytest.raises(TooFewReplicates, match="need at least 2 sample readings, got 1"):
        validate(first, one)
    with pytest.raises(ParseError):
        parse_second_stage("")
    std, samp = fixture_paths(tmp_path)[0], tmp_path / "one.csv"
    samp.write_text("Y0\n1.0\n")
    assert main(["fit", "--standards", std, "--sample", str(samp)]) == 1
    assert capsys.readouterr() == ("", "error: need at least 2 sample readings, got 1\n")


def test_roundtrip_standards_and_sample(analytes):
    for first, second in analytes.values():
        back = parse_first_stage(write_first_stage(first))
        assert np.array_equal(back.x_fixed, first.x_fixed)
        assert np.array_equal(back.y, first.y)
        assert np.array_equal(back.delta_var, first.delta_var)
        back2 = parse_second_stage(write_second_stage(second))
        assert np.array_equal(back2.y0, second.y0)


finite = st.floats(allow_nan=False, allow_infinity=False)


# u stays where u * u neither overflows nor underflows, so sqrt(u * u) == u
@settings(max_examples=50, deadline=None)
@given(rows=st.lists(st.tuples(finite, st.floats(1e-150, 1e150) | st.just(0.0), finite),
                     min_size=3, max_size=12))
def test_roundtrip_standards_is_exact(rows):
    x, u, y = (np.array(col) for col in zip(*rows))
    first = FirstStageData(x_fixed=x, y=y, delta_var=u * u)
    back = parse_first_stage(write_first_stage(first))
    for name in ("x_fixed", "y", "delta_var"):
        assert getattr(back, name).tobytes() == getattr(first, name).tobytes(), name


def test_parse_scenarios_defaults_and_overrides():
    text = (
        "n,k,x0,alpha,beta,sigma_eps2,n_reps,seed,x_grid,delta_vars\n"
        "5,2,0.8,0.1,2.0,0.04,100,7,,\n"
        "3,2,0.5,0.0,1.0,0.01,50,8,0;1;2,0.1;0.1;0.1\n"
    )
    cfgs = parse_scenarios(text)
    assert len(cfgs) == 2
    assert np.array_equal(cfgs[0].x_grid, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert cfgs[0].delta_var_rule[-1] == 0.1
    assert np.array_equal(cfgs[1].x_grid, [0, 1, 2])
    assert np.all(cfgs[1].delta_var_rule == 0.1)
    assert cfgs[1].ci_level == 0.95
    # an optional cell that is blank after trimming is left empty, as in
    # padded hand-written files
    blank = parse_scenarios(
        "n,k,x0,alpha,beta,sigma_eps2,n_reps,seed,ci_level,x_grid,delta_vars\n"
        "5,2,0.8,0.1,2.0,0.04,100,7, \n"
        "5,2,0.8,0.1,2.0,0.04,100,7,, ,\n"
        "5,2,0.8,0.1,2.0,0.04,100,7,,, \n"
        "5,2,0.8,0.1,2.0,0.04,100,7, \t, \t, \n"
    )
    for cfg in blank:
        assert cfg.ci_level == 0.95
        assert np.array_equal(cfg.x_grid, cfgs[0].x_grid)
        assert np.array_equal(cfg.delta_var_rule, cfgs[0].delta_var_rule)


def test_parse_scenarios_rejects_bad_files():
    header = "n,k,x0,alpha,beta,sigma_eps2,n_reps,seed\n"
    with pytest.raises(ParseError, match="missing"):
        parse_scenarios("n,k,x0\n5,2,0.8\n")
    with pytest.raises(ParseError, match="unknown"):
        parse_scenarios("n,k,x0,alpha,beta,sigma_eps2,n_reps,seed,extra\n")
    with pytest.raises(ParseError, match="header repeats columns \\['seed'\\]"):
        parse_scenarios(header.strip() + ",seed\n5,2,0.8,0.1,2.0,0.04,10,1,2\n")
    # a padded header is read by its trimmed names
    padded = parse_scenarios("n, k,x0 ,alpha,beta,sigma_eps2,n_reps, seed\n"
                             "5,2,0.8,0.1,2.0,0.04,10,1\n")
    assert [(c.n, c.k, c.x0_true, c.n_reps, c.seed) for c in padded] == [(5, 2, 0.8, 10, 1)]
    # rows are named by their file line, blank lines counted
    with pytest.raises(ParseError, match="row 5: seed must be >= 0"):
        parse_scenarios(header + "5,2,0.8,0.1,2.0,0.04,10,1\n\n\n5,2,0.8,0.1,2.0,0.04,10,-1\n")
    with pytest.raises(ParseError, match="row 3 has 3 fields, expected 8"):
        parse_scenarios(header + "5,2,0.8,0.1,2.0,0.04,10,1\n5,2,0.8\n")
    with pytest.raises(ParseError, match="no scenario"):
        parse_scenarios("n,k,x0,alpha,beta,sigma_eps2,n_reps,seed\n")
    with pytest.raises(ParseError, match="row 2"):
        parse_scenarios("n,k,x0,alpha,beta,sigma_eps2,n_reps,seed\n5,2,x,0,2,0.04,10,1\n")
    with pytest.raises(ParseError, match="row 3 has 10 fields, expected 8"):
        parse_scenarios("n,k,x0,alpha,beta,sigma_eps2,n_reps,seed\n5,2,0.8,0.1,2.0,0.04,10,1\n"
                        "5,2,0.8,0.1,2.0,0.04,10,1,99,98\n")
    # trailing optional cells may be left out
    assert len(parse_scenarios("n,k,x0,alpha,beta,sigma_eps2,n_reps,seed,ci_level,x_grid\n"
                               "5,2,0.8,0.1,2.0,0.04,10,1\n5,2,0.8,0.1,2.0,0.04,10,1,0.9\n")) == 2


def test_bundled_scenario_file_parses():
    from hetcal.fixtures import scenario_file_bytes

    cfgs = parse_scenarios(scenario_file_bytes())
    assert len(cfgs) == 39
    assert {c.x0_true for c in cfgs} == {0.01, 0.8, 1.9}
    assert {c.n for c in cfgs} == {5, 20, 100, 5000}


def test_a_byte_order_mark_at_the_start_of_a_file_is_ignored():
    # spreadsheets save "CSV UTF-8" files with a leading byte-order mark
    from codecs import BOM_UTF8 as BOM

    from hetcal.fixtures import scenario_file_bytes

    def fields(obj):  # what the object holds, without a scenario's design built from it
        return [np.asarray(getattr(obj, f.name)).tobytes() for f in dataclasses.fields(obj)
                if f.compare]

    for name, parse in (("cadmium_standards.csv", parse_first_stage),
                        ("cadmium_sample.csv", parse_second_stage)):
        data = fixture_bytes(name)
        assert fields(parse(BOM + data)) == fields(parse(data)), name
        assert fields(parse("\ufeff" + data.decode())) == fields(parse(data)), name
    data = scenario_file_bytes()
    assert list(map(fields, parse_scenarios(BOM + data))) == \
        list(map(fields, parse_scenarios(data)))
    # only the mark is dropped: a second one is part of the first column's name
    with pytest.raises(ParseError, match="header is missing columns \\['X'\\]"):
        parse_first_stage(BOM + BOM + fixture_bytes("cadmium_standards.csv"))


@pytest.mark.parametrize("parse", [parse_first_stage, parse_second_stage, parse_scenarios])
def test_a_file_that_is_not_utf8_is_a_parse_error(parse):
    with pytest.raises(ParseError, match="input is not valid UTF-8"):
        parse(b"X,u,Y\n0,0,\xff\n")


def test_render_text_of_no_fits():
    assert render_text([]) == "no fits\n"


# ----------------------------------------------------------------- CLI


def fixture_paths(tmp_path, analyte="chromium"):
    std = tmp_path / "std.csv"
    samp = tmp_path / "samp.csv"
    std.write_bytes(fixture_bytes(f"{analyte}_standards.csv"))
    samp.write_bytes(fixture_bytes(f"{analyte}_sample.csv"))
    return str(std), str(samp)


def test_cli_fit_text_output(tmp_path, capsys):
    std, samp = fixture_paths(tmp_path)
    code = main(["fit", "--standards", std, "--sample", samp, "--model", "both"])
    out = capsys.readouterr().out
    assert code == 0
    assert "usual" in out and "proposed" in out
    assert "134.9469" in out
    assert "123003.7" in out
    assert "0.08302691" in out


def test_cli_fit_json_matches_csv_at_full_precision(tmp_path, capsys):
    std, samp = fixture_paths(tmp_path)
    assert main(["fit", "--standards", std, "--sample", samp, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(["fit", "--standards", std, "--sample", samp, "--format", "csv"]) == 0
    csv_lines = capsys.readouterr().out.strip().splitlines()
    header = csv_lines[0].split(",")
    for rec, line in zip(payload, csv_lines[1:]):
        row = dict(zip(header, line.split(",")))
        assert rec["model"] == row["model"]
        for key in ("alpha", "beta", "x0", "var_x0", "expanded_uncertainty"):
            assert float(row[key]) == rec[key]
        assert float(row["ci_lower"]) == rec["ci"][0]
        assert float(row["ci_upper"]) == rec["ci"][1]
    assert {rec["model"] for rec in payload} == {"usual", "proposed"}
    for rec in payload:
        assert set(rec) >= {
            "model", "alpha", "beta", "x0", "var_x0", "ci",
            "expanded_uncertainty", "converged", "iterations",
        }


@pytest.mark.parametrize("label", ["Cr, run 2", 'Cr "B"', "Cr\nrun 2"])
def test_cli_fit_csv_quotes_the_label(tmp_path, capsys, label):
    std, samp = fixture_paths(tmp_path)
    assert main(["fit", "--standards", std, "--sample", samp, "--format", "csv",
                 "--label", label]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 3
    assert all(len(row) == 12 for row in rows)
    assert [row[0] for row in rows[1:]] == [label, label]


def test_cli_fit_text_shows_rounded_json_numbers(tmp_path, capsys):
    std, samp = fixture_paths(tmp_path, "lead")
    assert main(["fit", "--standards", std, "--sample", samp, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(["fit", "--standards", std, "--sample", samp, "--format", "text"]) == 0
    text = capsys.readouterr().out
    for rec in payload:
        for key in ("alpha", "beta", "x0"):
            assert f"{rec[key]:.7g}" in text


def test_cli_fit_zero_uncertainty_models_agree(tmp_path, capsys):
    std = tmp_path / "std.csv"
    samp = tmp_path / "samp.csv"
    std.write_text("X,u,Y\n0,0,1.0\n1,0,3.1\n2,0,4.9\n")
    samp.write_text("Y0\n3.0\n3.2\n")
    assert main(["fit", "--standards", str(std), "--sample", str(samp),
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    by_model = {rec["model"]: rec for rec in payload}
    for key in ("alpha", "beta", "x0", "var_x0"):
        assert by_model["usual"][key] == pytest.approx(
            by_model["proposed"][key], rel=1e-8
        )


def test_cli_fit_input_errors_exit_1(tmp_path, capsys):
    std, samp = fixture_paths(tmp_path)
    assert main(["fit", "--standards", str(tmp_path / "missing.csv"),
                 "--sample", samp]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("X,u\n1,2\n")
    assert main(["fit", "--standards", str(bad), "--sample", samp]) == 1
    # a path is opened as given: a file named as a directory is not read
    assert main(["fit", "--standards", std + "/", "--sample", samp]) == 1
    assert "Not a directory" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["usual", "proposed", "both"])
def test_cli_fit_non_finite_cell_exit_1(tmp_path, capsys, model):
    _, samp = fixture_paths(tmp_path)
    std = tmp_path / "nan.csv"
    std.write_text("X,u,Y\n0.0,0.001,0.1\nnan,0.001,2.1\n2.0,0.001,4.1\n")
    assert main(["fit", "--standards", str(std), "--sample", samp, "--model", model]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: standards file: row 3, column X: 'nan' is not a finite number\n"


def test_cli_fit_nonconvergence_exit_2(tmp_path, capsys, monkeypatch):
    import dataclasses

    import hetcal.cli as cli_mod

    std, samp = fixture_paths(tmp_path)
    real = cli_mod.fit_hetero

    def unconverged(first, second, *args, **kwargs):
        res = real(first, second, *args, **kwargs)
        return dataclasses.replace(res, converged=False)

    monkeypatch.setattr(cli_mod, "fit_hetero", unconverged)
    assert main(["fit", "--standards", std, "--sample", samp,
                 "--model", "proposed"]) == 2
    capsys.readouterr()


def test_cli_simulate_writes_summary_csv(tmp_path, capsys):
    scen = tmp_path / "scenarios.csv"
    scen.write_text(
        "n,k,x0,alpha,beta,sigma_eps2,n_reps,seed\n"
        "5,2,0.8,0.1,2.0,0.04,25,3\n"
        "5,3,1.9,0.1,2.0,0.04,25,4\n"
    )
    out = tmp_path / "summary.csv"
    assert main(["simulate", "--scenarios", str(scen), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("x0,n,k,usual_bias")
    assert len(lines) == 3
    first_row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(first_row["x0"]) == 0.8
    assert int(first_row["n_failed"]) >= 0
    assert 0.0 <= float(first_row["proposed_coverage_pct"]) <= 100.0


def test_cli_simulate_deterministic_across_threads(tmp_path):
    scen = tmp_path / "scenarios.csv"
    scen.write_text(
        "n,k,x0,alpha,beta,sigma_eps2,n_reps,seed\n5,2,0.8,0.1,2.0,0.04,40,9\n"
    )
    out1, out4 = tmp_path / "t1.csv", tmp_path / "t4.csv"
    assert main(["simulate", "--scenarios", str(scen), "--out", str(out1),
                 "--threads", "1"]) == 0
    assert main(["simulate", "--scenarios", str(scen), "--out", str(out4),
                 "--threads", "4"]) == 0
    assert out1.read_bytes() == out4.read_bytes()


def test_cli_simulate_single_noiseless_replicate(tmp_path):
    scen = tmp_path / "scenarios.csv"
    scen.write_text(
        "n,k,x0,alpha,beta,sigma_eps2,n_reps,seed,delta_vars\n"
        "5,2,0.8,0.1,2.0,0.0,1,3,0;0;0;0;0\n"
    )
    out = tmp_path / "s.csv"
    assert main(["simulate", "--scenarios", str(scen), "--out", str(out)]) == 0
    row = dict(zip(*[line.split(",") for line in out.read_text().strip().splitlines()]))
    assert float(row["usual_bias"]) == 0.0
    assert float(row["proposed_mse"]) == 0.0


def test_cli_simulate_skips_failed_scenarios_and_continues(tmp_path, capsys):
    # first scenario: zero response error with nonzero preparation error makes
    # every replicate fail; the run must warn and still write the second row
    scen = tmp_path / "scenarios.csv"
    scen.write_text(
        "n,k,x0,alpha,beta,sigma_eps2,n_reps,seed\n"
        "5,3,0.8,0.1,2.0,0.0,5,3\n"
        "5,2,0.8,0.1,2.0,0.04,10,3\n"
    )
    out = tmp_path / "s.csv"
    assert main(["simulate", "--scenarios", str(scen), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "skipped" in err
    assert len(out.read_text().strip().splitlines()) == 2


def test_cli_simulate_bundled_study_file_smoke(tmp_path):
    # the full bundled study runs for minutes; rewrite it with tiny
    # replication to prove every scenario row is runnable end to end
    from hetcal.fixtures import scenario_file_bytes

    lines = scenario_file_bytes().decode().strip().splitlines()
    header = lines[0].split(",")
    reps_col = header.index("n_reps")
    reduced = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[reps_col] = "3"
        reduced.append(",".join(cells))
    scen = tmp_path / "study_small.csv"
    scen.write_text("\n".join(reduced) + "\n")
    out = tmp_path / "study_summary.csv"
    assert main(["simulate", "--scenarios", str(scen), "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 40  # header + 39 scenarios
    header_out = rows[0].split(",")
    x0s = {float(dict(zip(header_out, r.split(",")))["x0"]) for r in rows[1:]}
    assert x0s == {0.01, 0.8, 1.9}


def test_cli_level_with_no_finite_quantile_exit_1(tmp_path, capsys):
    # the level's quantile was taken after the fits, where it raised an
    # untyped StatisticsError; both commands now reject the level up front
    std, samp = fixture_paths(tmp_path, "cadmium")
    level = "0.9999999999999999"
    assert main(["fit", "--standards", std, "--sample", samp, "--level", level]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: confidence level") and err.count("\n") == 1
    scen, summary = tmp_path / "scen.csv", tmp_path / "summary.csv"
    scen.write_text(f"n,k,x0,alpha,beta,sigma_eps2,n_reps,seed,ci_level\n"
                    f"5,2,0.8,0.1,2.0,0.04,10,1,{level}\n")
    assert main(["simulate", "--scenarios", str(scen), "--out", str(summary)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scenario file: row 2: ") and err.count("\n") == 1
    assert "too close to 1" in err and not summary.exists()


def test_cli_simulate_bad_input_exit_1(tmp_path, capsys):
    assert main(["simulate", "--scenarios", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "o.csv")]) == 1
    scen = tmp_path / "bad.csv"
    scen.write_text("wrong,header\n1,2\n")
    assert main(["simulate", "--scenarios", str(scen),
                 "--out", str(tmp_path / "o.csv")]) == 1
    capsys.readouterr()
    # scenarios that cannot give a fittable dataset are input errors too
    header = "n,k,x0,alpha,beta,sigma_eps2,n_reps,seed\n"
    # each row, and the field its message names
    for row, field in (("5,2,0.8,0.1,2.0,-0.04,10,1", "sigma_eps2 must be nonnegative"),
                       ("5,2,0.8,0.1,2.0,nan,10,1", "sigma_eps2 must be finite"),
                       ("5,2,nan,0.1,2.0,0.04,10,1", "x0 must be finite"),
                       ("5,1,0.8,0.1,2.0,0.04,10,1", "k must be >= 2, got 1"),
                       ("2,2,0.8,0.1,2.0,0.04,10,1", "n must be >= 3, got 2"),
                       ("5,2,0.8,0.1,0,0.04,10,1", "slope 0.0 is numerically zero"),
                       ("5,2,0.8,0.1,1e-20,0.04,10,1", "slope 1e-20 is numerically zero"),
                       ("5,2,0.8,0.1,2.0,0.04,10,-1", "seed must be >= 0")):
        # rejected with the file, before the valid first row runs
        scen.write_text(header + "5,2,0.8,0.1,2.0,0.04,10,1\n" + row + "\n")
        out = tmp_path / "o.csv"
        assert main(["simulate", "--scenarios", str(scen), "--out", str(out)]) == 1, row
        err = capsys.readouterr().err
        assert err.startswith("error: scenario file: row 3: ") and field in err, (row, err)
        assert not out.exists()
    scen.write_text(header.strip() + ",x_grid\n5,2,0.8,0.1,2.0,0.04,10,1,1;1;1;1;1\n")
    assert main(["simulate", "--scenarios", str(scen), "--out", str(out)]) == 1
    assert "all standard concentrations are identical" in capsys.readouterr().err
    assert not out.exists()


def test_cli_simulate_output_directory_exit_1(tmp_path, capsys):
    # an --out that cannot be written is reported by main's one handler
    scen = tmp_path / "s.csv"
    scen.write_text("n,k,x0,alpha,beta,sigma_eps2,n_reps,seed\n5,2,0.8,0.1,2.0,0.04,10,1\n")
    assert main(["simulate", "--scenarios", str(scen), "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert "Is a directory" in err


def test_cli_fit_unwritable_stdout_exit_1(tmp_path, capsys, monkeypatch):
    # a report that cannot be written is an input error too, not a traceback
    class Unwritable(io.StringIO):
        def write(self, text):
            raise OSError("stdout is closed")

    std, samp = fixture_paths(tmp_path)
    monkeypatch.setattr(sys, "stdout", Unwritable())
    assert main(["fit", "--standards", std, "--sample", samp]) == 1
    assert capsys.readouterr().err == "error: stdout is closed\n"


def test_cli_simulate_reads_padded_header_and_blank_lines(tmp_path, capsys):
    scen, out = tmp_path / "s.csv", tmp_path / "o.csv"
    header = "n, k, x0,alpha,beta,sigma_eps2,n_reps,seed\n"
    scen.write_text(header + "5,2,0.8,0.1,2.0,0.04,10,1\n\n5,2,1.9,0.1,2.0,0.04,10,2\n")
    assert main(["simulate", "--scenarios", str(scen), "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 3  # the header and two scenarios
    out.unlink()
    # a bad row after a blank line is named by its file line, with no traceback
    scen.write_text(header + "5,2,0.8,0.1,2.0,0.04,10,1\n\n5,2,0.8,0.1,2.0,0.04,10,-1\n")
    capsys.readouterr()
    assert main(["simulate", "--scenarios", str(scen), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scenario file: row 4: ") and "Traceback" not in err
    assert not out.exists()


def test_cli_simulate_overflowing_draws_fail_as_replicates(tmp_path, capsys):
    # beta * x overflows to inf: every replicate fails and the scenario is
    # skipped with a warning, not a traceback
    scen = tmp_path / "huge.csv"
    scen.write_text("n,k,x0,alpha,beta,sigma_eps2,n_reps,seed,x_grid\n"
                    "5,2,0.8,0.1,1e308,0.04,3,1,2;3;4;5;6\n")
    out = tmp_path / "s.csv"
    assert main(["simulate", "--scenarios", str(scen), "--out", str(out)]) == 0
    assert "all 3 replicates failed" in capsys.readouterr().err
    assert out.read_text().count("\n") == 1


def test_cli_simulate_extreme_slopes_exit_0(tmp_path, capsys):
    # a tiny slope is a valid scenario with huge but finite variances; a slope
    # whose square overflows fails every replicate instead of raising
    scen, out = tmp_path / "slopes.csv", tmp_path / "s.csv"
    header = "n,k,x0,alpha,beta,sigma_eps2,n_reps,seed\n"
    scen.write_text(header + "5,2,0.8,0.1,1e-13,0.04,5,1\n")
    assert main(["simulate", "--scenarios", str(scen), "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 2
    scen.write_text(header + "5,2,0.8,0.1,1e200,0.04,5,1\n")
    assert main(["simulate", "--scenarios", str(scen), "--out", str(out)]) == 0
    assert "all 5 replicates failed" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["usual", "proposed", "both"])
def test_cli_fit_unrepresentable_fit_exit_1(tmp_path, capsys, model):
    std, samp = tmp_path / "std.csv", tmp_path / "samp.csv"
    std.write_text("X,u,Y\n0,0.01,1e159\n0.5,0.01,2.1e160\n1,0.01,3.9e160\n"
                   "1.5,0.01,6.2e160\n2,0.01,8e160\n")
    samp.write_text("Y0\n3e160\n3.2e160\n")
    code = main(["fit", "--standards", str(std), "--sample", str(samp), "--model", model])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("unit", [1e60, 1e-60])
@pytest.mark.parametrize("model", ["proposed", "both"])
def test_cli_fit_variance_out_of_float_range_exit_1(tmp_path, capsys, unit, model):
    # cadmium in a response unit where powers of sigma_eps2 leave the float range
    first, second = load_analyte("cadmium")
    std, samp = tmp_path / "std.csv", tmp_path / "samp.csv"
    std.write_text(write_first_stage(FirstStageData(first.x_fixed, unit * first.y,
                                                    first.delta_var)))
    samp.write_text(write_second_stage(SecondStageData(unit * second.y0)))
    code = main(["fit", "--standards", str(std), "--sample", str(samp), "--model", model])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "not representable in floating point" in captured.err


@pytest.mark.parametrize("model", ["usual", "proposed", "both"])
def test_cli_fit_exact_line_whose_slope_overflows_exit_1(tmp_path, capsys, model):
    # identical readings on an exact line whose least-squares slope overflows:
    # only the error line is printed, no floating-point warning
    std, samp = tmp_path / "std.csv", tmp_path / "samp.csv"
    std.write_text("X,u,Y\n0,0,-1.7e308\n1,0,0\n2,0,1.7e308\n")
    samp.write_text("Y0\n1\n1\n")
    code = main(["fit", "--standards", str(std), "--sample", str(samp), "--model", model])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: the fit is not representable in floating point")
    assert captured.err.count("\n") == 1


def _outcome(call, argv, capsys):
    """Exit code, stdout and stderr of ``call(argv)``, which may exit."""
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h", "fit"], ["fit", "--help"], ["simulate", "--help"],
    ["fit", "--standards", "std.csv"],
    ["fit", "--standards", "std.csv", "--sample", "samp.csv", "--model", "bogus"],
    ["fit", "--standards", "std.csv", "--sample", "samp.csv", "--level", "x"],
    ["simulate", "--scenarios", "scen.csv", "--out", "out.csv", "--threads", "q"],
    ["fit", "--standards", "std.csv", "--sample", "samp.csv", "--bogus"],
    ["fit", "--standards", "std.csv", "--sample", "samp.csv", "extra"],
    ["fit", "--stand", "std.csv", "--samp", "samp.csv"],
    ["fitt", "--standards", "std.csv", "--sample", "samp.csv"],
    ["fi", "--standards", "std.csv", "--sample", "samp.csv"],
], ids=" ".join)
def test_cli_parses_as_argparse_does(argv, tmp_path, capsys, monkeypatch):
    # main hands argv to the subcommand's parser; its exits and messages are
    # those of the full parser
    from hetcal.cli import _PARSER

    monkeypatch.chdir(tmp_path)
    fixture_paths(tmp_path, "cadmium")
    want = _outcome(_PARSER.parse_args, argv, capsys)
    got = _outcome(main, argv, capsys)
    if isinstance(want[0], argparse.Namespace):  # parsed: main went on to fit
        assert got[0] == 0 and "proposed" in got[1]
    else:
        assert got == want


def test_import_does_not_load_scipy():
    import hetcal

    src = str(Path(hetcal.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, hetcal, hetcal.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
