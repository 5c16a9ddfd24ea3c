"""One-off timing of the bundled 39-row, 3,000-replicate simulation study.

Not a benchmark workload: it runs ``hetcal simulate`` once on
``src/hetcal/fixtures/simulation_study.csv`` with the default single thread
and records wall time, replicates per second and failures in
``bench/full_study.json`` (the summary CSV goes to
``bench/full_study_summary.csv``).  Run from the repository root:

    python3 bench/full_study.py
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import machine

ROOT = Path.cwd()
STUDY = ROOT / "src" / "hetcal" / "fixtures" / "simulation_study.csv"
HERE = Path(__file__).resolve().parent


def main() -> int:
    if not STUDY.is_file():
        print(f"error: {STUDY} not found; run from the repository root", file=sys.stderr)
        return 1
    out = HERE / "full_study_summary.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "hetcal.cli", "simulate",
           "--scenarios", str(STUDY), "--out", str(out), "--threads", "1"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return 1
    with STUDY.open() as fh:
        requested = list(csv.DictReader(fh))
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    reps = sum(int(r["n_reps"]) for r in requested)
    completed = sum(int(r["n_reps"]) for r in rows)
    failed = sum(int(r["n_failed"]) for r in rows)
    result = {
        "what": "hetcal simulate on the bundled 39-row study, --threads 1",
        "scenarios_requested": len(requested),
        "scenarios_reported": len(rows),
        "replicates_attempted": reps,
        "replicates_in_reported_scenarios": completed,
        "replicates_failed": failed,
        "wall_s": round(wall, 3),
        "reps_per_s": round(reps / wall, 3),
        "stderr": proc.stderr.strip().splitlines(),
        "machine": machine.describe(),
    }
    (HERE / "full_study.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
