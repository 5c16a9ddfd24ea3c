"""hetcal benchmark: one workload, one run, one JSON result on the last line.

    python3 bench/run.py --workload fit|mc_small|mc_large --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the program is used from ``src`` as it is,
not installed.  Set-up is measured in ``SETUP_SAMPLES`` fresh interpreters
(import hetcal, build the workload's inputs) and reported as their median.
The workload then runs in one more fresh interpreter: a closed loop with one
client calling ``hetcal.cli.main`` in-process, single-threaded, for about
``--seconds`` seconds of call time, followed by an untimed check of every
output against ``bench/reference.json``.

Times are corrected for the host's speed at the moment they were taken
(``hostspeed.py``).  ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` runs every round twice in a row, untraced and with every
layer wrapped in spans, and reports the per-layer metrics and the tracing
overhead instead.

Workloads (see ``inputs.py`` for the inputs):

* ``fit``: a lab user's single calibration, ``hetcal fit --model both`` on
  the three bundled analytes, the two recorded local-maximum replicates and
  seeded datasets at n in {5, 20, 100}, k in {2, 20}, rotating
  ``--format text|csv|json``.  Bypasses the simulator.
* ``mc_small``: ``hetcal simulate`` on one (n=5, k=2) scenario per call,
  100 replicates each; short vectors, so per-fit overhead dominates.
* ``mc_large``: the same on (n=5000, k=500) scenarios, 100 replicates each;
  the study's longest vectors, so array work and memory show.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # the whole run, set-up included


def child(args, role: str, workdir: Path, root: Path, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "child.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["fit", "mc_small", "mc_large"], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    # turn SIGTERM into SystemExit so subprocess.run kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    if not (root / "src" / "hetcal" / "__init__.py").is_file():
        print(f"error: no hetcal sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    if not (HERE / "reference.json").is_file():
        print("error: bench/reference.json is missing", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = [child(args, "setup", work / f"setup{i}", root, deadline)
                  for i in range(SETUP_SAMPLES)]
        res = child(args, "run", work / "run", root, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import inputs
    import machine

    setup_s = statistics.median(s["import_s"] + s["inputs_s"] for s in setups)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client, --threads 1",
        "inputs": inputs.describe(args.workload),
        "machine": machine.describe(),
        "setup_samples_s": [s["import_s"] + s["inputs_s"] for s in setups],
        "setup_raw_samples_s": [s["raw_import_s"] + s["raw_inputs_s"] for s in setups],
        "setup_host_speed": [s["setup_host_speed"] for s in setups],
        "host_speed": res.get("host_speed"),
        "rounds": res["rounds"],
        "call_s": res["call_s"],
        "calls": res["calls"],
        "latency_tail_percentile": res["tail"],
        "latency_percentiles_ms": res["percentiles_ms"],
        "latency_raw_percentiles_ms": res["raw_percentiles_ms"],
        "reps": res["reps"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failed_share": res["failed"] / res["attempted"],
        "problems": res["problems"][:50],
        "problem_count": len(res["problems"]),
    }
    if args.trace:
        overhead = res["traced_s"] - res["call_s"]
        self_sum = sum(v["self_s"] for v in res["layers"].values())
        report.update(layers=res["layers"], counts=res["counts"], span_file=res["span_file"],
                      missing_hooks=res["missing_hooks"], untraced_s=res["call_s"],
                      traced_s=res["traced_s"], self_time_sum_s=self_sum)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in
                   res["layer_metrics"].items()}
        for key in ("import_s", "inputs_s"):
            metrics[f"setup.{key}"] = {"value": statistics.median(s[key] for s in setups),
                                       "unit": "s"}
        metrics["trace.wall_s"] = {"value": res["traced_s"], "unit": "s"}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead / res["call_s"],
                                         "unit": "%"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "latency_p50_ms": {"value": res["latency_p50_ms"], "unit": "ms"},
            "latency_tail_ms": {"value": res["latency_tail_ms"], "unit": "ms"},
            "reps_per_s": {"value": res["reps_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not res["problems"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
