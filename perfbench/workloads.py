"""Seeded inputs and the job of each workload.

A workload is one round of jobs, drawn from the seed, that the runner
repeats whole until its time is up. Every round of a run holds the same
inputs, so per-job counts repeat exactly however many rounds a run gets
through, and every output after the first round can be compared with
the first one.

Jobs call tailkit through module attributes (``engine.run_algorithm``,
not a name bound at import), so that the wrappers of a traced run see
every call.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tailkit import awgn, cli, connections, dist, engine
from tailkit.engine import SeedKind, TailSide

OMEGAS = (0.5, 1.0, 5.0)
EPSILONS = (1e-3, 1e-5)
PAIRS = tuple((om, eps) for om in OMEGAS for eps in EPSILONS)

#: Blocklengths per (Omega, eps) pair in one round.
AWGN_PER_PAIR = 20
AWGN_N_RANGE = (1e3, 1e7)

#: The oracle draws one blocklength from each of these strata per pair.
#: The work of an oracle job grows about linearly in n and its times
#: spread over 30x within a round, so narrow strata keep both the work of
#: a round and the job at its median the same from seed to seed.
ORACLE_STRATA = ((240, 260), (960, 1040), (1920, 2000))

MAX_ITER = 4
#: The manifest timestamp is pinned, so every round writes the same bytes.
CSV_TIMESTAMP = "1970-01-01T00:00:00+00:00"
CHERNOFF_T_GRID = tuple(float(t) for t in np.linspace(0.05, 12.0, 80))


@dataclass(frozen=True)
class BoundsJob:
    """One bound study: run_algorithm, the figure CSV and, for the
    Gaussian and beta prime, the paper's comparison candidate."""

    kind: str  # "gaussian", "beta-prime" or "ncchi2"
    params: tuple[tuple[str, float], ...]
    side: TailSide
    seed: SeedKind
    window: tuple[float, float]
    csv_path: str

    @property
    def p(self) -> dict:
        return dict(self.params)

    @property
    def x0(self) -> float:
        return self.window[0] if self.side is TailSide.RIGHT else self.window[1]

    def make_dist(self):
        p = self.p
        if self.kind == "gaussian":
            return dist.make_gaussian(p["mu"], p["sigma"])
        if self.kind == "beta-prime":
            return dist.make_beta_prime(p["alpha"], p["beta"])
        return dist.make_noncentral_chi2(p["k"], p["s"])

    def candidate(self):
        p = self.p
        if self.kind == "gaussian":
            mu, sigma = p["mu"], p["sigma"]
            return connections.chernoff_h(
                lambda t: math.exp(mu * t + 0.5 * sigma * sigma * t * t), list(CHERNOFF_T_GRID)
            )
        if self.kind == "beta-prime":
            return connections.markov_h(p["alpha"] / (p["beta"] - 1.0))
        return None

    def cli_argv(self) -> list[str]:
        argv = ["bounds", "--dist", self.kind]
        for name, value in self.params:
            argv += [f"--{name}", repr(value)]
        argv += [
            "--side", self.side.value, "--seed", self.seed.value, "--iters", str(MAX_ITER),
            "--x-min", repr(self.window[0]), "--x-max", repr(self.window[1]),
            "--out", self.csv_path, "--timestamp", CSV_TIMESTAMP,
        ]
        return argv


@dataclass
class BoundsOutput:
    run: engine.RunResult
    candidate: object  # CandidateH or None
    candidate_cls: object  # Classification or None
    cli_status: int


def bounds_round(seed: int, csv_dir: Path) -> list[BoundsJob]:
    """Draws near the README's fig1-fig3 settings, one per distribution."""
    rng = random.Random(f"bounds:{seed}")
    u = rng.uniform
    gauss = (("mu", -1.7 + u(-0.1, 0.1)), ("sigma", 1.9 * u(0.95, 1.05)))
    bprime = (("alpha", 2.1 + u(-0.1, 0.1)), ("beta", 1.3 + u(-0.05, 0.05)))
    ncchi2 = (("k", 10.0 + u(-0.5, 0.5)), ("s", 2.0 * u(0.9, 1.1)))
    return [
        BoundsJob("gaussian", gauss, TailSide.RIGHT, SeedKind.PDF, (1.0, 30.0),
                  str(csv_dir / "bounds-0-gaussian.csv")),
        BoundsJob("beta-prime", bprime, TailSide.RIGHT, SeedKind.SHIFTED_PDF, (2.0, 60.0),
                  str(csv_dir / "bounds-1-beta-prime.csv")),
        BoundsJob("ncchi2", ncchi2, TailSide.LEFT, SeedKind.SHIFTED_PDF, (0.05, 6.0),
                  str(csv_dir / "bounds-2-ncchi2.csv")),
    ]


def run_bounds(job: BoundsJob) -> BoundsOutput:
    d = job.make_dist()
    run = engine.run_algorithm(d, job.seed, job.side, job.x0, MAX_ITER, job.window)
    status = cli.main(job.cli_argv())
    h = job.candidate()
    h_cls = connections.classify_h(d, h, job.window) if h is not None else None
    return BoundsOutput(run, h, h_cls, status)


def bounds_signature(job: BoundsJob, out: BoundsOutput) -> tuple:
    cls = [(c.verdict, c.threshold, c.tightness_ok) for _, c in out.run.iterates]
    stored = tuple(None if it is None else it.index for it in (out.run.p_l, out.run.p_u))
    h = None if out.candidate_cls is None else (out.candidate_cls.verdict, out.candidate_cls.threshold)
    digest = hashlib.sha256(Path(job.csv_path).read_bytes()).hexdigest()
    return (tuple(cls), out.run.stop_reason, stored, h, out.cli_status, digest)


def awgn_round(seed: int) -> list[awgn.AwgnConfig]:
    """Log-uniform blocklengths, ascending within each (Omega, eps) pair."""
    rng = random.Random(f"awgn:{seed}")
    lo, hi = (math.log(v) for v in AWGN_N_RANGE)
    jobs = []
    for omega, eps in PAIRS:
        ns: set[int] = set()
        while len(ns) < AWGN_PER_PAIR:
            ns.add(int(round(math.exp(rng.uniform(lo, hi)))))
        jobs += [awgn.AwgnConfig(n, omega, eps) for n in sorted(ns)]
    return jobs


def run_awgn(cfg: awgn.AwgnConfig) -> awgn.AwgnPoint:
    return awgn.converse_bounds(cfg)


def oracle_round(seed: int) -> list[awgn.AwgnConfig]:
    rng = random.Random(f"oracle:{seed}")
    return [
        awgn.AwgnConfig(rng.randint(lo, hi), omega, eps)
        for omega, eps in PAIRS
        for lo, hi in ORACLE_STRATA
    ]


def run_oracle(cfg: awgn.AwgnConfig) -> float:
    return awgn.oracle_converse(cfg)


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: list
    run: object  # job -> output
    signature: object  # (job, output) -> comparable value


def build(name: str, seed: int, csv_dir: Path) -> Workload:
    if name == "bounds":
        return Workload(name, bounds_round(seed, csv_dir), run_bounds, bounds_signature)
    if name == "awgn":
        return Workload(name, awgn_round(seed), run_awgn, lambda job, out: out)
    if name == "oracle":
        return Workload(name, oracle_round(seed), run_oracle, lambda job, out: out)
    raise ValueError(f"unknown workload {name!r}")

