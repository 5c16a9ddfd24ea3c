"""One benchmark process: a fresh interpreter that imports hetcal, builds a
workload's inputs and, for ``--role run``, drives ``hetcal.cli.main`` in a
closed loop with one client, then checks every output (untimed).

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; prints one JSON object on its last line.  Set-up and, with
``--trace 0``, every call are timed with the host-speed correction of
``hostspeed.py``.
"""

import time

from hostspeed import HostSpeed

SETUP_SPEED = HostSpeed()  # sampled from here until the inputs are built
SETUP_SPEED.start()
_t0 = time.perf_counter()
import hetcal  # noqa: E402  (timed: this is the set-up a user pays)
import hetcal.cli  # noqa: E402

_t1 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

TAIL_LADDER = (99.0, 95.0, 90.0)


def build_inputs(workload: str, seed: int, workdir: Path, root: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "fit":
        entries, cycle = inputs.fit_plan(seed)
        paths = {}
        for entry in entries:
            standards, sample = inputs.fit_input(entry, root)
            s_path, y_path = workdir / f"{entry}_standards.csv", workdir / f"{entry}_sample.csv"
            s_path.write_bytes(standards)
            y_path.write_bytes(sample)
            paths[entry] = (str(s_path), str(y_path))
        calls = [(entry, fmt, ["fit", "--standards", paths[entry][0], "--sample",
                               paths[entry][1], "--model", "both", "--format", fmt,
                               "--label", entry])
                 for entry, fmt in cycle]
        return {"entries": entries, "rounds": [calls]}
    spec = inputs.MC[workload]
    out = str(workdir / "summary.csv")
    rounds = []
    for triple in inputs.mc_plan(workload, seed):
        calls = []
        for sc in inputs.bank_round(spec, triple):
            path = workdir / f"{sc.key}.csv"
            path.write_bytes(sc.csv())
            calls.append((sc, None, ["simulate", "--scenarios", str(path), "--out", out]))
        rounds.append(calls)
    return {"rounds": rounds, "out": Path(out)}


def call_main(argv):
    """One timed ``hetcal.cli.main`` call: (exit code, start, end, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = hetcal.cli.main(argv)
        end = time.perf_counter()
    return code, start, end, out.getvalue()


class Runner:
    """Closed loop over rounds of calls; keeps the first output of each
    distinct call and counts later outputs that differ from it."""

    def __init__(self, workload: str, plan: dict):
        self.workload = workload
        self.plan = plan
        self.first = {}
        self.mismatched = 0
        self.attempted = 0
        self.failed = 0
        self.intervals = []  # (start, end) of every call
        self.reps = 0
        self.spent = 0.0  # call time

    def _record(self, key, output):
        if key not in self.first:
            self.first[key] = output
        elif self.first[key] != output:
            self.mismatched += 1

    def run_round(self, calls):
        for item, fmt, argv in calls:
            code, start, end, text = call_main(argv)
            self.spent += end - start
            self.intervals.append((start, end))
            if self.workload == "fit":
                self.attempted += 1
                self.reps += 1
                self.failed += code != 0
                if code == 0:
                    self._record((item, fmt), text)
                continue
            self.attempted += item.reps
            self.reps += item.reps
            rows = check.read_summary(self.plan["out"]) if code == 0 else []
            if len(rows) != 1:
                self.failed += item.reps
                continue
            self.failed += int(rows[0]["n_failed"])
            self._record(item, rows[0])

    def run(self, seconds: float, after_round=None) -> int:
        """Whole rounds until the next would pass ``seconds`` of call time (at
        least one); ``after_round(calls)`` runs after each.  Returns rounds."""
        rounds = self.plan["rounds"]
        done = 0
        while not done or self.spent + self.spent / done <= seconds:
            calls = rounds[done % len(rounds)]
            self.run_round(calls)
            if after_round is not None:
                after_round(calls)
            done += 1
        return done


def warm_up(workload: str, plan: dict, workdir: Path):
    """Untimed calls that let imports, caches and lazy set-up finish."""
    if workload == "fit":
        seen = set()
        for entry, _, argv in plan["rounds"][0]:
            if entry not in seen:
                seen.add(entry)
                call_main(argv)
        return
    spec = inputs.MC[workload]
    path = workdir / "warmup.csv"
    path.write_bytes(inputs.Scenario(spec.n, spec.k, 0.8, 1, 3).csv())
    call_main(["simulate", "--scenarios", str(path), "--out", str(plan["out"])])


def tail(samples: list[float]) -> tuple[str, float]:
    """Highest ladder percentile with at least ten samples beyond it, or the
    maximum when there are too few samples for any."""
    for pct in TAIL_LADDER:
        if len(samples) * (1.0 - pct / 100.0) >= 10.0:
            return f"p{pct:g}", float(np.percentile(samples, pct))
    return "max", max(samples)


def check_outputs(workload: str, runner: Runner, plan: dict, root: Path) -> list[str]:
    """Every problem found with the run's outputs; a check that cannot
    complete is itself a problem."""
    try:
        return _check_outputs(workload, runner, plan, root)
    except Exception:  # noqa: BLE001  (reported as an incorrect result)
        return ["check raised:\n" + traceback.format_exc(limit=4)]


def _check_outputs(workload: str, runner: Runner, plan: dict, root: Path) -> list[str]:
    ref = check.load_reference()
    problems = []
    if runner.mismatched:
        problems.append(f"{runner.mismatched} outputs differ from the first for the same call")
    chromium = inputs.fit_input("chromium", root)
    first = hetcal.parse_first_stage(chromium[0])
    second = hetcal.parse_second_stage(chromium[1])
    problems += check.self_test(first, second, hetcal.fit_hetero(first, second),
                                ref["fit"]["chromium"]["proposed"]["log_likelihood"])
    if workload == "fit":
        for entry in plan["entries"]:
            want = ref["fit"][entry]
            standards, sample = inputs.fit_input(entry, root)
            first = hetcal.parse_first_stage(standards)
            second = hetcal.parse_second_stage(sample)
            fit = hetcal.fit_hetero(first, second)
            found, better = check.certify(fit.theta_hat, first, second,
                                          want["proposed"]["log_likelihood"])
            problems += [f"{entry}: {p}" for p in found]
            span = float(first.x_fixed.max() - first.x_fixed.min())
            for fmt in inputs.FORMATS:
                text = runner.first.get((entry, fmt))
                if text is None:
                    problems.append(f"{entry}/{fmt}: never produced output")
                    continue
                problems += check.check_fit_output(entry, fmt, text, want, better, span)
        return problems
    for sc, row in runner.first.items():
        problems += check.check_scenario(sc, row, ref["mc"].get(sc.key))
    if workload == "mc_small":
        sc = inputs.local_max_scenario()
        path = plan["out"].parent / "localmax.csv"
        path.write_bytes(sc.csv())
        code, _, _, _ = call_main(["simulate", "--scenarios", str(path),
                                   "--out", str(plan["out"])])
        rows = check.read_summary(plan["out"]) if code == 0 else []
        if len(rows) != 1:
            problems.append(f"{sc.key}: simulate exited {code}")
        else:
            problems += check.check_scenario(sc, rows[0], ref["mc"].get(sc.key))
    return problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=["setup", "run"], required=True)
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    root = Path.cwd()
    workdir = Path(args.workdir)

    t2 = time.perf_counter()
    plan = build_inputs(args.workload, args.seed, workdir, root)
    t3 = time.perf_counter()
    SETUP_SPEED.stop()
    result = {"import_s": SETUP_SPEED.scaled(_t0, _t1), "inputs_s": SETUP_SPEED.scaled(t2, t3),
              "raw_import_s": _t1 - _t0, "raw_inputs_s": t3 - t2,
              "setup_host_speed": SETUP_SPEED.summary()}
    if args.role == "setup":
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps(result))
        return 0

    warm_up(args.workload, plan, workdir)
    runner = Runner(args.workload, plan)
    if not args.trace:
        speed = HostSpeed()
        speed.start()
        try:
            rounds = runner.run(args.seconds)
        finally:
            speed.stop()
        latencies = [speed.scaled(start, end) for start, end in runner.intervals]
        result.update(host_speed=speed.summary())
        attempted, failed = runner.attempted, runner.failed
    else:
        # each round runs again right away with every layer wrapped, so the
        # traced and untraced time see the same host conditions; the outputs
        # of both must agree
        traced = Runner(args.workload, plan)
        traced.first = runner.first
        tracer = spans.Tracer()

        def traced_round(calls):
            tracer.install()
            try:
                traced.run_round(calls)
            finally:
                tracer.remove()

        rounds = runner.run(args.seconds, after_round=traced_round)
        # no host-speed probes here: they would land inside the spans
        latencies = [end - start for start, end in runner.intervals]
        runner.mismatched += traced.mismatched
        attempted = runner.attempted + traced.attempted
        failed = runner.failed + traced.failed
        span_file = root / ".bench_work" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(span_file)
        result.update(traced_s=traced.spent, span_file=str(span_file.relative_to(root)),
                      layers=tracer.table(), counts=tracer.counts,
                      missing_hooks=tracer.missing,
                      layer_metrics=spans.layer_metrics(
                          tracer, traced.failed if args.workload != "fit" else 0))
    result.update(rounds=rounds, call_s=runner.spent)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = check_outputs(args.workload, runner, plan, root)
    label, tail_s = tail(latencies)
    raw = [end - start for start, end in runner.intervals]
    result.update(
        attempted=attempted, failed=failed, reps=runner.reps,
        calls=len(latencies),
        latency_p50_ms=1e3 * statistics.median(latencies),
        latency_tail_ms=1e3 * tail_s, tail=label,
        reps_per_s=runner.reps / sum(latencies),
        peak_rss_mb=peak_rss_mb,
        problems=problems,
        percentiles_ms={f"p{q}": float(np.percentile(latencies, q)) * 1e3
                        for q in (50, 90, 95, 99, 100)},
        raw_percentiles_ms={f"p{q}": float(np.percentile(raw, q)) * 1e3
                            for q in (50, 90, 95, 99, 100)},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
