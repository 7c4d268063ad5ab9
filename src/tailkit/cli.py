"""Command-line surface: figure data as CSV plus verification runs.

Every CSV starts with a '#'-prefixed manifest block (command, flags,
version, timestamp, grid settings).  Numbers are written with 17
significant digits, NaN cells as empty fields, '\n' line endings; given
an identical manifest (pin --timestamp or SOURCE_DATE_EPOCH) a rerun
reproduces the file byte for byte.  Output goes through a temp file and
an atomic rename, so a partial CSV is never left behind.

Exit codes: 0 ok, 1 verification failure, 2 bad flags (a window outside
the support, a seed the distribution cannot take), 3 invalid seed,
4 an ``awgn`` row failed (its cells are empty and its ``status`` names
the error; the other rows are written).
"""

from __future__ import annotations

import argparse
import datetime as _dt
import functools
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__, awgn, dist, engine
from .engine import GridSpec, SeedKind, TailSide
from .errors import ParamError, SeedIncompatible, SeedInvalid, TailkitError

_ORACLE_N_CAP = 1_000_000


def _fmt(x: float) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return format(float(x), ".17g")


def _format_rows(template: str, rows) -> list[str]:
    """Each row of floats through ``template``, whose number fields are
    %.17g, as ``_fmt`` writes a cell: %.17g writes NaN as "nan", which no
    other cell contains, and ``_fmt`` as an empty cell."""
    return [(template % row).replace("nan", "") for row in rows]


def _timestamp(args) -> str:
    if getattr(args, "timestamp", None):
        return args.timestamp
    sde = os.environ.get("SOURCE_DATE_EPOCH")
    if sde:
        return _dt.datetime.fromtimestamp(int(sde), _dt.timezone.utc).isoformat()
    return _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")


def _manifest_lines(command: str, params: dict, grid_desc: str, args) -> list[str]:
    kv = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
    return [
        "# tailkit CSV",
        f"# command: {command}",
        f"# parameters: {kv}",
        f"# tool_version: {__version__}",
        f"# timestamp: {_timestamp(args)}",
        f"# settings: {grid_desc}",
    ]


def _write_rows(out_path: str | None, lines: list[str]):
    payload = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(payload)
        return
    directory = os.path.dirname(os.path.abspath(out_path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(prefix=".tailkit-", dir=directory)
        try:
            with os.fdopen(fd, "w", newline="\n") as fh:
                fh.write(payload)
            # mkstemp makes the file owner-only; give it the mode open()
            # would, 0o666 less the umask (read by setting it, and put back)
            umask = os.umask(0o022)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, out_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise TailkitError(f"cannot write {out_path}: {exc.strerror or exc}") from exc


def _build_dist(args):
    if args.dist == "gaussian":
        return dist.make_gaussian(args.mu, args.sigma), {"dist": "gaussian", "mu": args.mu, "sigma": args.sigma}
    if args.dist == "beta-prime":
        return dist.make_beta_prime(args.alpha, args.beta), {"dist": "beta-prime", "alpha": args.alpha, "beta": args.beta}
    return dist.make_noncentral_chi2(args.k, args.s), {"dist": "ncchi2", "k": args.k, "s": args.s}


def cmd_bounds(args) -> int:
    """The iterates P_0 .. P_iters as CSV: x, each P_i, its verdict and
    threshold, each rate R_i = |P_{i+1}/P_i - 1| and each ln P_i, at
    --points points on [--x-min, --x-max]. One grid pass of the deepest
    iterate, over the classification grid and these points together
    (``engine.tabulate_chain``), gives all of it but the thresholds
    inside the window, which come from scalar passes."""
    d, params = _build_dist(args)
    if not (d.support.contains_open(args.x_min) and d.support.contains_open(args.x_max)):
        raise ParamError(
            f"window ({args.x_min:g}, {args.x_max:g}) not inside the open support"
            f" ({d.support.lower:g}, {d.support.upper:g}) of {args.dist}"
        )
    side = TailSide.RIGHT if args.side == "right" else TailSide.LEFT
    seed = SeedKind.PDF if args.seed == "pdf" else SeedKind.SHIFTED_PDF
    params.update(
        side=args.side, seed=args.seed, iters=args.iters,
        x_min=args.x_min, x_max=args.x_max, points=args.points,
    )
    grid = GridSpec()
    window = (args.x_min, args.x_max)

    chain = [engine.make_seed(d, seed, side)]
    for _ in range(args.iters):
        chain.append(engine.iterate(chain[-1]))
    if args.x_min > 0:
        xs = np.geomspace(args.x_min, args.x_max, args.points)
    else:
        xs = np.linspace(args.x_min, args.x_max, args.points)
    # one grid pass of the deepest iterate, over the classification grid
    # and the CSV points together: it classifies every iterate, and gives
    # ln f, each q_i = ln(P_i/f) and each step a_i = P_i/P_{i+1} - 1 at the
    # CSV points
    try:
        levels, (lf, qs, steps) = engine.tabulate_chain(chain[-1], window, xs, grid)
        classifications = [next(levels)]
    except TailkitError as exc:
        raise SeedInvalid(f"seed fails on ({args.x_min}, {args.x_max}): {exc}") from exc
    if classifications[0].verdict is engine.Verdict.INVALID:
        raise SeedInvalid(f"seed invalid on ({args.x_min}, {args.x_max})")
    classifications += levels

    n_it = len(chain)
    header = (
        ["x"]
        + [f"P_{i}" for i in range(n_it)]
        + [f"verdict_{i}" for i in range(n_it)]
        + [f"threshold_{i}" for i in range(n_it)]
        + [f"R_{i}" for i in range(n_it - 1)]
        + [f"lnP_{i}" for i in range(n_it)]
    )
    grid_desc = f"grid_points={grid.points} spacing=geometric tol={engine.DEFAULT_TOL:g}"
    lines = _manifest_lines("bounds", params, grid_desc, args)
    lines.append(",".join(header))
    # ln P_i = ln f + q_i, P_i = e^{ln P_i} (0 where it underflows, while
    # ln P_i stays finite) and R_i = |expm1(d_i)| from its step; a point
    # where an iterate is undefined is NaN, written as an empty cell
    with np.errstate(all="ignore"):
        log_p = [lf + q for q in qs]
        columns = [np.exp(v) for v in log_p] + [abs(engine._flip(a)) for a in steps]
    # x and the P_i, the verdicts and thresholds (the same in every row),
    # then the R_i and the lnP_i
    template = ",".join(
        ["%.17g"] * (1 + n_it)
        + [c.verdict.value for c in classifications]
        + [_fmt(c.threshold) for c in classifications]
        + ["%.17g"] * (2 * n_it - 1)
    )
    lines += _format_rows(template, zip(xs.tolist(), *(col.tolist() for col in columns + log_p)))
    _write_rows(args.out, lines)
    return 0


def cmd_awgn(args) -> int:
    try:
        omega = args.omega if args.omega is not None else 10.0 ** (args.omega_db / 10.0)
    except OverflowError:
        raise ParamError(f"--omega-db {args.omega_db:g} overflows the linear SNR") from None
    ns = args.n_list or [int(round(v)) for v in np.geomspace(args.n_min, args.n_max, args.n_points)]
    # every flag is checked (ParamError, exit 2) before the first row
    cfgs = [awgn.AwgnConfig(n, omega, args.eps) for n in ns]
    params = dict(omega=omega, eps=args.eps, oracle=args.oracle, n=",".join(str(n) for n in ns))
    lines = _manifest_lines("awgn", params, f"oracle_n_cap={_ORACLE_N_CAP}", args)
    lines.append(
        "n,lambda_p0,lambda_p1,lambda_asym,r_lower,r_upper,r_asym,r_na,capacity,oracle_converse,status"
    )
    failed = False
    for cfg in cfgs:
        try:
            p = awgn.converse_bounds(cfg)
            oc = ""
            if args.oracle == "on" and cfg.n <= _ORACLE_N_CAP:
                oc = _fmt(awgn.oracle_converse(cfg))
        except (TailkitError, ArithmeticError) as exc:
            # the row keeps its n, its cells stay empty, and the sweep goes
            # on (an extreme --eps or --omega overflows: ArithmeticError)
            print(f"tailkit: n={cfg.n}: {exc}", file=sys.stderr)
            lines.append(f"{cfg.n},,,,,,,,,,{type(exc).__name__}")
            failed = True
            continue
        cells = (p.lambda_p0, p.lambda_p1, p.lambda_asym, p.r_lower, p.r_upper, p.r_asym, p.r_na, p.capacity)
        lines.append(",".join([str(cfg.n), *map(_fmt, cells), oc, "ok"]))
    _write_rows(args.out, lines)
    return 4 if failed else 0


def cmd_verify(args) -> int:
    from . import verify  # only this command runs the suites

    return 0 if verify.run_suites([args.suite]) else 1


def _n_list(spec: str) -> list[int]:
    try:
        return [int(v) for v in spec.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad blocklength list {spec!r} (want comma-separated integers)") from None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, each ``parse_args`` fills a fresh namespace."""
    p = argparse.ArgumentParser(prog="tailkit", description=__doc__)
    p.add_argument("--version", action="version", version=f"tailkit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="iterated tail bounds as CSV (figure data)")
    b.add_argument("--dist", required=True, choices=["gaussian", "beta-prime", "ncchi2"])
    b.add_argument("--mu", type=float, default=0.0)
    b.add_argument("--sigma", type=float, default=1.0)
    b.add_argument("--alpha", type=float, default=2.0)
    b.add_argument("--beta", type=float, default=2.0)
    b.add_argument("--k", type=float, default=4.0)
    b.add_argument("--s", type=float, default=1.0)
    b.add_argument("--side", choices=["right", "left"], default="right")
    b.add_argument("--seed", choices=["pdf", "shifted-pdf"], default="pdf")
    b.add_argument("--iters", type=int, default=4, choices=range(1, 9), metavar="I")
    b.add_argument("--x-min", type=float, required=True)
    b.add_argument("--x-max", type=float, required=True)
    b.add_argument("--points", type=int, default=200)
    b.add_argument("--out", default=None)
    b.add_argument("--timestamp", default=None, help="pin the manifest timestamp (reproducible reruns)")
    b.set_defaults(fn=cmd_bounds)

    a = sub.add_parser("awgn", help="finite-blocklength converse bounds as CSV")
    g = a.add_mutually_exclusive_group(required=True)
    g.add_argument("--omega", type=float, default=None, help="SNR, linear scale")
    g.add_argument("--omega-db", type=float, default=None, help="SNR in dB")
    a.add_argument("--eps", type=float, required=True)
    a.add_argument("--n-list", type=_n_list, default=None, help="comma-separated blocklengths")
    a.add_argument("--n-min", type=float, default=1e3)
    a.add_argument("--n-max", type=float, default=1e6)
    a.add_argument("--n-points", type=int, default=13)
    a.add_argument("--oracle", choices=["on", "off"], default="off")
    a.add_argument("--out", default=None)
    a.add_argument("--timestamp", default=None)
    a.set_defaults(fn=cmd_awgn)

    v = sub.add_parser("verify", help="run the invariant suites")
    v.add_argument("--suite", choices=["jet", "specfun", "bounds", "awgn", "cli", "all"], default="all")
    v.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "bounds":
        if args.points < 1:
            parser.error(f"bounds: --points must be at least 1, got {args.points}")
        if not (math.isfinite(args.x_min) and math.isfinite(args.x_max)):
            parser.error(f"bounds: --x-min and --x-max must be finite, got {args.x_min:g} and {args.x_max:g}")
        if not args.x_min < args.x_max:
            parser.error(f"bounds: --x-min {args.x_min:g} must lie below --x-max {args.x_max:g}")
    if args.command == "awgn":
        if args.n_points < 1:
            parser.error(f"awgn: --n-points must be at least 1, got {args.n_points}")
        if not (0.0 < args.n_min < math.inf and 0.0 < args.n_max < math.inf):
            parser.error(f"awgn: --n-min and --n-max must be finite and positive, got {args.n_min:g} and {args.n_max:g}")
    try:
        return args.fn(args)
    except SeedInvalid as exc:
        print(f"tailkit: seed invalid: {exc}", file=sys.stderr)
        return 3
    except (ParamError, SeedIncompatible) as exc:  # a flag value the model rejects
        print(f"tailkit: {exc}", file=sys.stderr)
        return 2
    except TailkitError as exc:
        print(f"tailkit: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
