"""Command-line interface: fit calibration data and run simulation studies.

Exit codes: 0 success, 1 input error, 2 estimation non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import io as hio
from .errors import AllReplicatesFailed, CalibrationError
from .hetero import fit_hetero
from .simulate import run_scenario
from .usual import fit_usual

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2


def _build_parser():
    """The ``hetcal`` parser, and its subcommands' parsers by name."""
    parser = argparse.ArgumentParser(
        prog="hetcal",
        description="Calibration fits and Monte Carlo studies for responses "
        "measured against standards with known preparation-error variances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="estimate an unknown concentration")
    fit.add_argument("--standards", required=True, help="CSV with header X,u,Y")
    fit.add_argument("--sample", required=True, help="CSV with header Y0")
    fit.add_argument(
        "--model", choices=["usual", "proposed", "both"], default="both"
    )
    fit.add_argument("--level", type=float, default=0.95)
    fit.add_argument("--format", choices=["text", "csv", "json"], default="text")
    fit.add_argument("--label", default=None, help="analyte label for reports")

    sim = sub.add_parser("simulate", help="run Monte Carlo scenarios")
    sim.add_argument("--scenarios", required=True, help="scenario CSV file")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--threads", type=int, default=1,
                     help="accepted and ignored; output depends only on the seeds")
    return parser, {"fit": fit, "simulate": sim}


# main sends argv[0] straight to its subcommand's parser, which takes about
# half the time of the full parser.  Anything else (no subcommand first, or
# arguments the subcommand leaves unparsed) goes to the full parser, so that
# every usage, help and error message, and every exit code, is argparse's own.
_PARSER, _SUBPARSERS = _build_parser()


def _parse(argv):
    if argv and argv[0] in _SUBPARSERS:
        args, extras = _SUBPARSERS[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return _PARSER.parse_args(argv)


def _read(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def cmd_fit(args) -> int:
    fitters = {"usual": fit_usual, "proposed": fit_hetero}
    models = list(fitters) if args.model == "both" else [args.model]
    standards_bytes = _read(args.standards)
    sample_bytes = _read(args.sample)
    first = hio.parse_first_stage(standards_bytes)
    second = hio.parse_second_stage(sample_bytes)
    fits = [fitters[model](first, second, level=args.level) for model in models]
    label = args.label or Path(args.standards).stem
    digest = hio.input_digest(standards_bytes, sample_bytes)
    reports = [hio.FitReport(model=model, analyte_label=label, fit=fit, input_digest=digest)
               for model, fit in zip(models, fits)]
    renderer = {"text": hio.render_text, "csv": hio.render_csv,
                "json": hio.render_json}[args.format]
    sys.stdout.write(renderer(reports))
    return EXIT_OK if all(fit.converged for fit in fits) else EXIT_NO_CONVERGENCE


def cmd_simulate(args) -> int:
    rows = []
    for cfg in hio.parse_scenarios(_read(args.scenarios)):
        try:
            rows.append(hio.summary_row(cfg, run_scenario(cfg)))
        except AllReplicatesFailed as exc:
            print(f"warning: {exc}; scenario skipped", file=sys.stderr)
    Path(args.out).write_text(hio.format_summary_csv(rows))
    return EXIT_OK


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return cmd_fit(args) if args.command == "fit" else cmd_simulate(args)
    except (OSError, CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
