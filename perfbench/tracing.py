"""Spans and counters around the public functions of tailkit's layers.

A traced run wraps module attributes of tailkit from the outside; the
library itself is not changed. Spans (name, start, end, parent span, job)
are kept in flat arrays in memory and written out when the run ends.
Counters count calls that are too many and too cheap to time one by one:
Jet constructions, coefficient-kernel calls and log-PDF jet evaluations.

The wrappers stay in place for the life of the process, so a process
runs either traced or untraced, never both.
"""

from __future__ import annotations

import dataclasses
import gzip
import time
from array import array
from collections import Counter

from tailkit import _kernels_py, awgn, cli, connections, dist, engine, jet, oracle, specfun

#: (module, attribute, span name) of every timed function.
SPANS = (
    (engine, "run_algorithm", "engine.run_algorithm"),
    (engine, "classify", "engine.classify"),
    (engine, "iterate", "engine.iterate"),
    (engine, "figure_rate", "engine.figure_rate"),
    (connections, "classify_h", "connections.classify_h"),
    (cli, "main", "cli.main"),
    (awgn, "solve_lambda", "awgn.solve_lambda"),
    (awgn, "log_p0_md", "awgn.log_p0_md"),
    (awgn, "log_p1_md", "awgn.log_p1_md"),
    (oracle, "ncchi2_cdf_log", "oracle.ncchi2_cdf_log"),
    (specfun, "log_bessel_i_jet", "specfun.log_bessel_i_jet"),
    (specfun, "log_bessel_i_scaled", "specfun.log_bessel_i_scaled"),
    (specfun, "log_reg_inc_gamma_P", "specfun.log_reg_inc_gamma_P"),
)

#: Self time of these spans excludes only the listed child spans.
SELF_CHILDREN = {
    "engine.run_algorithm": ("engine.classify", "engine.iterate"),
    "cli.main": ("engine.classify", "engine.figure_rate"),
}

#: Per-layer metric -> unit (the layer each one reads, and the end-to-end
#: metric it should move, are in README.md).
METRICS = {
    "engine.run_algorithm.ms": "ms",
    "engine.run_algorithm.self_ms": "ms",
    "engine.classify.ms": "ms",
    "engine.classify.calls": "count",
    "dist.log_pdf_jet.calls": "count",
    "dist.log_pdf_jet.per_point": "ratio",
    "jet.jets_built": "count",
    "jet.kernel_calls": "count",
    "specfun.log_bessel_i_jet.ms": "ms",
    "connections.classify_h.ms": "ms",
    "cli.main.ms": "ms",
    "cli.main.self_ms": "ms",
    "awgn.solve_lambda.ms": "ms",
    "awgn.bound_evals": "count",
    "awgn.log_p1_md.ms": "ms",
    "specfun.log_bessel_i_scaled.calls": "count",
    "specfun.log_bessel_i_scaled.ms": "ms",
    "oracle.ncchi2_cdf_log.calls": "count",
    "oracle.ncchi2_cdf_log.ms": "ms",
    "specfun.log_reg_inc_gamma_P.calls": "count",
    "specfun.log_reg_inc_gamma_P.ms": "ms",
}

_KERNEL_NAMES = ("add", "sub", "scale", "mul", "div", "exp", "ln", "sqrt", "powr")
_DIST_FACTORIES = ("make_gaussian", "make_beta_prime", "make_noncentral_chi2")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._job = -1
        self.counts: Counter = Counter()
        self.job_counts: list[Counter] = []

    # -- recording -------------------------------------------------------

    def clear(self):
        """Drop every span and count; the installed wrappers keep working."""
        for buf in (self.name, self.parent, self.job, self.start, self.end):
            del buf[:]
        self.job_counts.clear()

    def begin_job(self, job: int):
        self._job = job
        self.counts.clear()

    def end_job(self):
        self.job_counts.append(Counter(self.counts))
        self._job = -1

    def _span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        names, parents, jobs, starts, ends = self.name, self.parent, self.job, self.start, self.end

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(self._job)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap tailkit's functions in place."""
        for module, attr, name in SPANS:
            setattr(module, attr, self._span(name, getattr(module, attr)))
        jet.Jet.__post_init__ = self._counted("jet.jets_built", jet.Jet.__post_init__)
        for module in {id(m): m for m in (jet._k, _kernels_py)}.values():
            for attr in _KERNEL_NAMES:
                setattr(module, attr, self._counted("jet.kernel_calls", getattr(module, attr)))
        for attr in _DIST_FACTORIES:
            setattr(dist, attr, self._counting_factory(getattr(dist, attr)))

    def _counting_factory(self, factory):
        def make(*args, **kwargs):
            spec = factory(*args, **kwargs)
            counted = self._counted("dist.log_pdf_jet.calls", spec.log_pdf_jet)
            return dataclasses.replace(spec, log_pdf_jet=counted)

        return make

    # -- results ---------------------------------------------------------

    def spans_per_job(self, job: int) -> Counter:
        return Counter(self.names[n] for n, j in zip(self.name, self.job) if j == job)

    def per_layer(self, grid_points: int) -> dict[str, float]:
        """Every per-layer metric as a mean per job over the timed jobs; 0
        where the layer did no work."""
        jobs = max(1, len(self.job_counts))
        ms: Counter = Counter()
        calls: Counter = Counter()
        covered: Counter = Counter()
        names = self.names
        for sid in range(len(self.start)):
            if self.job[sid] < 0:  # outside the timed jobs (e.g. the checks)
                continue
            name = names[self.name[sid]]
            duration = self.end[sid] - self.start[sid]
            ms[name] += 1e3 * duration
            calls[name] += 1
            parent = self.parent[sid]
            if parent >= 0 and name in SELF_CHILDREN.get(names[self.name[parent]], ()):
                covered[parent] += 1e3 * duration
        self_ms: Counter = Counter()
        for sid, cover in covered.items():
            self_ms[names[self.name[sid]]] += cover
        counts: Counter = Counter()
        for c in self.job_counts:
            counts.update(c)

        classified = calls["engine.classify"] * grid_points
        out = {
            "engine.run_algorithm.ms": ms["engine.run_algorithm"],
            "engine.run_algorithm.self_ms": ms["engine.run_algorithm"] - self_ms["engine.run_algorithm"],
            "engine.classify.ms": ms["engine.classify"],
            "engine.classify.calls": calls["engine.classify"],
            "dist.log_pdf_jet.calls": counts["dist.log_pdf_jet.calls"],
            "jet.jets_built": counts["jet.jets_built"],
            "jet.kernel_calls": counts["jet.kernel_calls"],
            "specfun.log_bessel_i_jet.ms": ms["specfun.log_bessel_i_jet"],
            "connections.classify_h.ms": ms["connections.classify_h"],
            "cli.main.ms": ms["cli.main"],
            "cli.main.self_ms": ms["cli.main"] - self_ms["cli.main"],
            "awgn.solve_lambda.ms": ms["awgn.solve_lambda"],
            "awgn.bound_evals": calls["awgn.log_p0_md"] + calls["awgn.log_p1_md"],
            "awgn.log_p1_md.ms": ms["awgn.log_p1_md"],
            "specfun.log_bessel_i_scaled.calls": calls["specfun.log_bessel_i_scaled"],
            "specfun.log_bessel_i_scaled.ms": ms["specfun.log_bessel_i_scaled"],
            "oracle.ncchi2_cdf_log.calls": calls["oracle.ncchi2_cdf_log"],
            "oracle.ncchi2_cdf_log.ms": ms["oracle.ncchi2_cdf_log"],
            "specfun.log_reg_inc_gamma_P.calls": calls["specfun.log_reg_inc_gamma_P"],
            "specfun.log_reg_inc_gamma_P.ms": ms["specfun.log_reg_inc_gamma_P"],
        }
        out = {k: v / jobs for k, v in out.items()}
        # base: grid points x iterates classified, both per job
        out["dist.log_pdf_jet.per_point"] = counts["dist.log_pdf_jet.calls"] / classified if classified else 0.0
        return {k: out[k] for k in METRICS}

    def write(self, path):
        """Spans as gzip CSV: span, parent, job, name, start_s, end_s
        (seconds from the first span)."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("span,parent,job,name,start_s,end_s\n")
            names = self.names
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid},{self.parent[sid]},{self.job[sid]},{names[self.name[sid]]},"
                    f"{self.start[sid] - t0:.9f},{self.end[sid] - t0:.9f}\n"
                )
