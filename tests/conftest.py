"""Helpers shared by the test modules (import them with
``from conftest import chain, make_exp1``)."""

import math

from tailkit import dist as D
from tailkit import engine as E
from tailkit import jet as J
from tailkit.jet import jet_var


def chain(dist, seed, side, depth, **kw):
    """The seed and its first ``depth`` iterates."""
    out = [E.make_seed(dist, seed, side, **kw)]
    for _ in range(depth):
        out.append(E.iterate(out[-1]))
    return out


def make_exp1():
    """Exp(1) as a user-supplied spec: the exact fixed point of the
    iteration with g = f (the tail equals the PDF)."""

    def log_jet(anchor, order):
        return -jet_var(anchor, order)

    return D.DistributionSpec(
        "exp1", {}, D.SupportInterval(0.0, math.inf),
        lambda a, o: J.exp(log_jet(a, o)), log_pdf_jet=log_jet,
    )
