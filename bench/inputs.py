"""Benchmark inputs: the fit bank, the Monte Carlo scenario banks, and the
per-seed plans that pick from them.

Every input is generated here from fixed bank seeds, so ``reference.json``
can hold the outputs recorded for each one; ``--seed`` only chooses which
bank members a run uses and in what order.  Datasets follow the study's
controlled-variable model and draw from the same ``(seed, rep)`` substream
as ``hetcal.generate_dataset``, so a scenario's replicates can be rebuilt
here without calling the program.

NaN and infinite inputs are deliberately not in the mix: the program
currently accepts them and returns NaN with exit code 0, which the check
would reject at the commit that defined the benchmark.  They belong to the
program's own tests once it rejects them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# true parameters of the study's simulated designs
ALPHA, BETA, SIGMA_EPS2 = 0.1, 2.0, 0.04
X0S = (0.01, 0.8, 1.9)  # the study's unknown concentrations
LEVEL = 0.95

ANALYTES = ("chromium", "cadmium", "lead")
FIT_DESIGNS = ((5, 2), (5, 20), (20, 2), (20, 20), (100, 2), (100, 20))
FIT_BANK_PER_DESIGN = 24
FIT_PICK_PER_DESIGN = 8
FIT_BANK_SEED = 20_000
FORMATS = ("text", "csv", "json")

# make_scenario(n=5, k=2, x0=0.8, seed=7): these replicates converge to a
# local, not the global, maximum of the profiled likelihood at the commit
# that defined the benchmark.  Their recorded log-likelihood is a floor.
LOCAL_MAX_SCENARIO = dict(n=5, k=2, x0=0.8, seed=7)
LOCAL_MAX_REPS = (271, 344)
# the same scenario, long enough to hold both replicates, checked as a whole
LOCAL_MAX_CHECK_REPS = 400


@dataclass(frozen=True)
class McSpec:
    n: int
    k: int
    reps: int  # replicates per scenario
    triples: int  # bank size, in rounds of one scenario per x0
    seed_base: int


MC = {
    "mc_small": McSpec(n=5, k=2, reps=100, triples=32, seed_base=40_000),
    "mc_large": McSpec(n=5000, k=500, reps=100, triples=12, seed_base=50_000),
}
WORKLOADS = ("fit", "mc_small", "mc_large")


def design(n: int):
    """The study's design rule: 0..2 grid and linearly growing variances."""
    return np.linspace(0.0, 2.0, n), np.linspace(0.1 / n, 0.1, n)


def draw(n: int, k: int, x0: float, seed: int, rep: int):
    """One dataset ``(x, delta_var, y, y0)`` from replicate ``rep`` of the
    scenario with this seed; the draw order matches the program's."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), int(rep))))
    x, dv = design(n)
    delta = rng.standard_normal(n) * np.sqrt(dv)
    eps1 = rng.standard_normal(n) * math.sqrt(SIGMA_EPS2)
    eps0 = rng.standard_normal(k) * math.sqrt(SIGMA_EPS2)
    y = ALPHA + BETA * (x - delta) + eps1
    y0 = ALPHA + BETA * x0 + eps0
    return x, dv, y, y0


def _full(v) -> str:
    return repr(float(v))


def standards_csv(x, dv, y) -> bytes:
    rows = ["X,u,Y"] + [f"{_full(a)},{_full(math.sqrt(b))},{_full(c)}"
                        for a, b, c in zip(x, dv, y)]
    return ("\n".join(rows) + "\n").encode()


def sample_csv(y0) -> bytes:
    return ("\n".join(["Y0"] + [_full(v) for v in y0]) + "\n").encode()


# ---------------------------------------------------------------- fit bank

def fit_bank_ids() -> list[str]:
    ids = list(ANALYTES)
    ids += [f"localmax-{r}" for r in LOCAL_MAX_REPS]
    for n, k in FIT_DESIGNS:
        ids += [f"gen-n{n}-k{k}-{i}" for i in range(FIT_BANK_PER_DESIGN)]
    return ids


def fit_input(entry: str, root: Path) -> tuple[bytes, bytes]:
    """Standards and sample CSV bytes of one fit-bank entry."""
    if entry in ANALYTES:
        fixtures = root / "src" / "hetcal" / "fixtures"
        return ((fixtures / f"{entry}_standards.csv").read_bytes(),
                (fixtures / f"{entry}_sample.csv").read_bytes())
    if entry.startswith("localmax-"):
        s = LOCAL_MAX_SCENARIO
        x, dv, y, y0 = draw(s["n"], s["k"], s["x0"], s["seed"], int(entry.split("-")[1]))
    else:
        _, nn, kk, i = entry.split("-")
        n, k, i = int(nn[1:]), int(kk[1:]), int(i)
        seed = FIT_BANK_SEED + FIT_DESIGNS.index((n, k))
        x, dv, y, y0 = draw(n, k, X0S[i % len(X0S)], seed, i)
    return standards_csv(x, dv, y), sample_csv(y0)


def fit_plan(seed: int) -> tuple[list[str], list[tuple[str, str]]]:
    """The run's inputs and one cycle of calls, each input once per format.

    Every run fits the three analytes and the two local-maximum replicates,
    plus ``FIT_PICK_PER_DESIGN`` generated datasets per design chosen by the
    seed; the call order is shuffled by the seed.
    """
    rng = np.random.default_rng(seed)
    entries = list(ANALYTES) + [f"localmax-{r}" for r in LOCAL_MAX_REPS]
    for n, k in FIT_DESIGNS:
        picks = sorted(rng.choice(FIT_BANK_PER_DESIGN, FIT_PICK_PER_DESIGN, replace=False))
        entries += [f"gen-n{n}-k{k}-{i}" for i in picks]
    calls = [(e, f) for e in entries for f in FORMATS]
    order = rng.permutation(len(calls))
    return entries, [calls[i] for i in order]


# ------------------------------------------------------------ scenario banks

@dataclass(frozen=True)
class Scenario:
    n: int
    k: int
    x0: float
    seed: int
    reps: int

    @property
    def key(self) -> str:
        return f"n{self.n}-k{self.k}-x{self.x0}-s{self.seed}-r{self.reps}"

    def csv(self) -> bytes:
        return ("n,k,x0,alpha,beta,sigma_eps2,n_reps,seed\n"
                f"{self.n},{self.k},{self.x0},{ALPHA},{BETA},{SIGMA_EPS2},"
                f"{self.reps},{self.seed}\n").encode()


def bank_round(spec: McSpec, triple: int) -> list[Scenario]:
    """One round: a scenario at each of the study's x0 values."""
    return [Scenario(spec.n, spec.k, x0, spec.seed_base + len(X0S) * triple + j, spec.reps)
            for j, x0 in enumerate(X0S)]


def mc_plan(workload: str, seed: int) -> list[int]:
    """Bank rounds in the seed's order; a run cycles through them."""
    spec = MC[workload]
    return [int(t) for t in np.random.default_rng(seed).permutation(spec.triples)]


def local_max_scenario() -> Scenario:
    s = LOCAL_MAX_SCENARIO
    return Scenario(s["n"], s["k"], s["x0"], s["seed"], LOCAL_MAX_CHECK_REPS)


def describe(workload: str) -> dict:
    """Sizes a reader needs to relate the workload to caches and memory."""
    if workload == "fit":
        return {
            "designs_nk": [list(d) for d in FIT_DESIGNS],
            "analytes": list(ANALYTES),
            "local_max_reps": list(LOCAL_MAX_REPS),
            "generated_per_design": FIT_PICK_PER_DESIGN,
            "formats": list(FORMATS),
            "reps_per_scenario": 1,
            "stacked_array_bytes": max(n for n, _ in FIT_DESIGNS) * 8,
        }
    spec = MC[workload]
    return {
        "n": spec.n, "k": spec.k, "x0": list(X0S),
        "reps_per_scenario": spec.reps,
        "scenarios_per_round": len(X0S),
        "bank_rounds": spec.triples,
        "stacked_array_bytes": spec.reps * spec.n * 8,
    }
