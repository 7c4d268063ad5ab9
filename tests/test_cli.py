import dataclasses
import math
import os
import stat
import subprocess
import sys
import tempfile

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailkit import cli, dist, engine, oracle, verify
from tailkit.engine import SeedKind, TailSide

TS = ["--timestamp", "2026-01-01T00:00:00+00:00"]


def run(argv):
    return cli.main(argv)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def parse_csv(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    manifest = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    return manifest, header, rows


class TestBoundsCsv:
    def test_fig1_style_output(self, tmp_path):
        out = tmp_path / "fig1.csv"
        rc = run(
            ["bounds", "--dist", "gaussian", "--mu", "-1.7", "--sigma", "1.9",
             "--side", "right", "--seed", "pdf", "--iters", "4",
             "--x-min", "1", "--x-max", "30", "--points", "20", "--out", str(out)] + TS
        )
        assert rc == 0
        manifest, header, rows = parse_csv(out)
        assert any("command: bounds" in ln for ln in manifest)
        assert header[:6] == ["x", "P_0", "P_1", "P_2", "P_3", "P_4"]
        assert "verdict_4" in header and "threshold_0" in header and "R_3" in header
        assert len(rows) == 20
        verdicts = [rows[0][header.index(f"verdict_{i}")] for i in range(5)]
        assert verdicts == ["U", "L", "U", "L", "U"]

    def test_nan_cells_empty(self, tmp_path):
        # window reaching below the Gaussian mean: the seed has no value
        # there, cells stay empty
        out = tmp_path / "nan.csv"
        rc = run(
            ["bounds", "--dist", "gaussian", "--side", "right", "--seed", "pdf",
             "--iters", "1", "--x-min", "-1", "--x-max", "6", "--points", "15",
             "--out", str(out)] + TS
        )
        assert rc == 0
        _, header, rows = parse_csv(out)
        p0 = header.index("P_0")
        assert rows[0][p0] == ""  # x = -1 is left of the pole at the mean
        assert rows[-1][p0] != ""

    def test_seventeen_digit_format(self, tmp_path):
        out = tmp_path / "v.csv"
        run(["bounds", "--dist", "gaussian", "--side", "right", "--seed", "pdf",
             "--iters", "1", "--x-min", "1", "--x-max", "2", "--points", "3",
             "--out", str(out)] + TS)
        _, header, rows = parse_csv(out)
        val = rows[0][header.index("P_0")]
        assert float(val) > 0
        assert len(val.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) >= 16

    def test_no_partial_file_on_error(self, tmp_path):
        out = tmp_path / "never.csv"
        rc = run(["bounds", "--dist", "gaussian", "--side", "left", "--seed", "pdf",
                  "--iters", "2", "--x-min", "1", "--x-max", "5", "--out", str(out)] + TS)
        assert rc == 3  # seed invalid on the right-of-mode window
        assert not out.exists()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
    def test_out_mode_follows_the_umask(self, tmp_path, umask, mode):
        # the temp file behind the atomic rename is made owner-only; the
        # CSV gets the mode a plain open() would give it, 0o666 & ~umask
        out = tmp_path / "mode.csv"
        old = os.umask(umask)
        try:
            rc = run(["bounds", "--dist", "gaussian", "--side", "right", "--seed", "pdf",
                      "--iters", "1", "--x-min", "1", "--x-max", "3", "--points", "3",
                      "--out", str(out)] + TS)
        finally:
            os.umask(old)
        assert rc == 0
        assert stat.S_IMODE(os.stat(out).st_mode) == mode

    def test_bad_flags_exit_2(self, tmp_path):
        out = tmp_path / "never.csv"
        for flags in (
            [],  # missing x range
            ["--x-min", "1", "--x-max", "3", "--points", "-1"],
            ["--x-min", "1", "--x-max", "3", "--points", "0"],
            ["--x-min", "5", "--x-max", "1"],
            ["--x-min", "2", "--x-max", "2"],
        ):
            with pytest.raises(SystemExit) as exc:
                run(["bounds", "--dist", "gaussian", "--side", "right", "--out", str(out)] + flags + TS)
            assert exc.value.code == 2, flags
            assert not out.exists()
        # flag values that the distribution rejects (ParamError)
        for flags in (
            ["--dist", "gaussian", "--sigma", "-1"],
            ["--dist", "ncchi2", "--k", "-1"],
            ["--dist", "beta-prime", "--alpha", "0"],
            ["--dist", "ncchi2", "--k", "4", "--s", "inf"],
            ["--dist", "ncchi2", "--k", "inf"],
            ["--dist", "beta-prime", "--alpha", "inf"],
            ["--dist", "beta-prime", "--beta", "inf"],
        ):
            rc = run(["bounds", "--side", "right", "--x-min", "1", "--x-max", "3", "--out", str(out)] + flags + TS)
            assert rc == 2, flags
            assert not out.exists()
        # a window outside the support, and a seed the distribution cannot
        # take (SeedIncompatible)
        for flags in (
            ["--dist", "ncchi2", "--k", "10", "--s", "2", "--side", "left", "--seed", "shifted-pdf",
             "--x-min", "0", "--x-max", "6"],
            ["--dist", "beta-prime", "--seed", "shifted-pdf", "--x-min", "-1", "--x-max", "3"],
            ["--dist", "gaussian", "--seed", "shifted-pdf", "--side", "left", "--x-min", "1", "--x-max", "3"],
        ):
            assert run(["bounds", "--out", str(out)] + flags + TS) == 2, flags
            assert not out.exists()

    def test_non_finite_window_exit_2(self, tmp_path):
        out = tmp_path / "never.csv"
        for flags in (["--x-min", "1", "--x-max", "inf"], ["--x-min", "-inf", "--x-max", "3"],
                      ["--x-min", "nan", "--x-max", "3"]):
            with pytest.raises(SystemExit) as exc:
                run(["bounds", "--dist", "gaussian", "--side", "right", "--out", str(out)] + flags + TS)
            assert exc.value.code == 2, flags
            assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["bounds", "--dist", "gaussian", "--x-min", "1", "--x-max", "3", "--points", "3"],
        ["awgn", "--omega", "1", "--eps", "1e-3", "--n-list", "200"],
    ], ids=["bounds", "awgn"])
    def test_unwritable_out(self, tmp_path, capsys, command):
        # a missing directory, and a path that is a directory: reported,
        # exit 1, and no temp file left behind
        (tmp_path / "sub").mkdir()
        for out in (tmp_path / "missing" / "x.csv", tmp_path / "sub"):
            assert run(command + ["--out", str(out)] + TS) == 1
            assert f"tailkit: cannot write {out}: " in capsys.readouterr().err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]
            assert not any((tmp_path / "sub").iterdir())

    def test_stdout_mode(self, capsys):
        rc = run(["bounds", "--dist", "gaussian", "--side", "right", "--seed", "pdf",
                  "--iters", "1", "--x-min", "1", "--x-max", "3", "--points", "3"] + TS)
        assert rc == 0
        assert "# command: bounds" in capsys.readouterr().out


class TestSmallDofRightTail:
    """Below k = 4 the Bessel order k/2 - 1 of the non-central chi-squared
    ln f is below 1 (negative below k = 2): every bound the CSV claims
    holds against the log-space survival function."""

    @pytest.mark.parametrize("argv", [
        "--k 2.5 --s 9 --seed shifted-pdf --x-min 20 --x-max 900",
        "--k 3 --s 1.5 --seed pdf --x-min 20 --x-max 600",
        "--k 1 --s 50 --seed pdf --x-min 80 --x-max 300",
        "--k 0.5 --s 9 --seed pdf --x-min 30 --x-max 2000",
    ])
    def test_cells_on_their_verdicts_side(self, tmp_path, argv):
        argv = ["--dist", "ncchi2", "--side", "right", "--iters", "4"] + argv.split()
        out = tmp_path / "small-k.csv"
        assert run(["bounds"] + argv + ["--out", str(out)] + TS) == 0
        _, header, rows = parse_csv(out)
        k, s = float(_flag(argv, "--k")), float(_flag(argv, "--s"))
        checked = 0
        for row in rows:
            x = float(row[0])
            ln_sf = oracle.ncchi2_sf_log(k, s, x)
            for i in range(5):
                verdict = row[header.index(f"verdict_{i}")]
                if verdict not in ("U", "L", "E") or x < float(row[header.index(f"threshold_{i}")]):
                    continue
                ln_p = float(row[header.index(f"lnP_{i}")])
                if verdict in ("U", "E"):
                    assert ln_p >= ln_sf - 1e-9, (x, i)
                if verdict in ("L", "E"):
                    assert ln_p <= ln_sf + 1e-9, (x, i)
                checked += 1
        assert checked >= 4 * len(rows)


class TestAwgnCsv:
    def test_columns_and_oracle_blank_policy(self, tmp_path):
        out = tmp_path / "awgn.csv"
        rc = run(["awgn", "--omega", "1", "--eps", "1e-3",
                  "--n-list", "200,2000000", "--oracle", "on", "--out", str(out)] + TS)
        assert rc == 0
        _, header, rows = parse_csv(out)
        assert header == ["n", "lambda_p0", "lambda_p1", "lambda_asym", "r_lower",
                          "r_upper", "r_asym", "r_na", "capacity", "oracle_converse", "status"]
        byn = {int(r[0]): r for r in rows}
        oracle = header.index("oracle_converse")
        assert byn[200][oracle] != ""     # oracle on, below the cap
        assert byn[2000000][oracle] == ""  # above the oracle cap: blank
        assert [r[-1] for r in rows] == ["ok", "ok"]
        assert float(byn[200][header.index("capacity")]) == 0.5
        oc = float(byn[200][oracle])
        assert float(byn[200][4]) <= oc <= float(byn[200][5])

    @pytest.mark.parametrize("n_list", ["2,1000", "1000,2"])
    def test_failed_row_keeps_the_sweep(self, tmp_path, capsys, n_list):
        # n = 2 has no converse (the seed fails its validity check): its row
        # keeps n with empty cells and the error's class, the other rows are
        # those of a sweep without it, and the exit code is 4
        out, alone = tmp_path / "sweep.csv", tmp_path / "alone.csv"
        flags = ["awgn", "--omega", "1", "--eps", "1e-3", "--oracle", "on"]
        assert run(flags + ["--n-list", n_list, "--out", str(out)] + TS) == 4
        assert "tailkit: n=2: " in capsys.readouterr().err
        assert run(flags + ["--n-list", "1000", "--out", str(alone)] + TS) == 0
        _, header, rows = parse_csv(out)
        byn = {int(r[0]): r for r in rows}
        assert [int(r[0]) for r in rows] == [int(n) for n in n_list.split(",")]
        assert byn[2] == ["2"] + [""] * 9 + ["OutOfValidity"]
        assert byn[1000] == parse_csv(alone)[2][0]
        assert len(header) == 11

    def test_bad_flags_exit_2(self, tmp_path):
        out = tmp_path / "never.csv"
        for flags in (
            ["--n-list", "2,abc"],
            ["--n-list", ""],
            ["--n-points", "0"],
            ["--n-points", "-3"],
        ):
            with pytest.raises(SystemExit) as exc:
                run(["awgn", "--omega", "1", "--eps", "1e-3", "--out", str(out)] + flags + TS)
            assert exc.value.code == 2, flags
            assert not out.exists()
        # flag values that the model rejects (ParamError), before any row
        for flags in (
            ["--omega", "1", "--eps", "2"],
            ["--omega", "-1", "--eps", "1e-3"],
            ["--omega", "1", "--eps", "1e-3", "--n-list", "1000,1"],
            ["--omega", "1", "--eps", "1e-3", "--n-min", "1", "--n-max", "10", "--n-points", "2"],
        ):
            assert run(["awgn", "--out", str(out)] + flags + TS) == 2, flags
            assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("flags, code, named", [
        ("--omega 1 --eps 1e-3 --n-min nan", 2, "--n-min"),
        ("--omega 1 --eps 1e-3 --n-min 0", 2, "--n-min"),
        ("--omega 1 --eps 1e-3 --n-min -5", 2, "--n-min"),
        ("--omega 1 --eps 1e-3 --n-max inf", 2, "--n-max"),
        ("--omega-db 3100 --eps 1e-3", 2, "--omega-db"),
        ("--omega 1 --eps 1e-300", 4, "ZeroDivisionError"),
        ("--omega 1e300 --eps 1e-3", 4, "OverflowError"),
    ], ids=["n-min-nan", "n-min-0", "n-min-neg", "n-max-inf", "omega-db-3100", "eps-1e-300", "omega-1e300"])
    def test_extreme_flags_without_traceback(self, tmp_path, capsys, flags, code, named):
        # a value no sweep can take exits 2 naming its flag, and one that
        # overflows a row's arithmetic fails each row with the error's class
        out = tmp_path / "x.csv"
        try:
            rc = run(["awgn", "--n-points", "2", "--out", str(out)] + flags.split() + TS)
        except SystemExit as exc:
            rc = exc.code
        assert rc == code
        if code == 2:
            assert named in capsys.readouterr().err and not out.exists()
        else:
            assert [r[-1] for r in parse_csv(out)[2]] == [named, named]

    def test_omega_db(self, tmp_path):
        out = tmp_path / "db.csv"
        rc = run(["awgn", "--omega-db", "0", "--eps", "1e-3",
                  "--n-list", "500", "--out", str(out)] + TS)
        assert rc == 0
        _, header, rows = parse_csv(out)
        assert float(rows[0][header.index("capacity")]) == 0.5  # 0 dB = linear 1

    def test_log_spaced_range(self, tmp_path):
        out = tmp_path / "rng.csv"
        rc = run(["awgn", "--omega", "1", "--eps", "1e-3", "--n-min", "100",
                  "--n-max", "1000", "--n-points", "3", "--out", str(out)] + TS)
        assert rc == 0
        _, _, rows = parse_csv(out)
        ns = [int(r[0]) for r in rows]
        assert ns[0] == 100 and ns[-1] == 1000 and ns[1] == 316


class TestVerifyCommand:
    def test_single_suite_green(self, capsys):
        assert run(["verify", "--suite", "jet"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_failed_check_exits_1(self, monkeypatch, capsys):
        monkeypatch.setitem(verify.SUITES, "jet", [("jet.forced", lambda: (False, "forced"))])
        assert run(["verify", "--suite", "jet"]) == 1
        assert "FAIL  jet.forced" in capsys.readouterr().out

    def test_rerun_check_compares_awgn_csvs(self, monkeypatch):
        # an awgn CSV whose last digit drifts from run to run fails the check
        from tailkit import awgn

        converse_bounds, calls = awgn.converse_bounds, []

        def drifting(cfg):
            calls.append(cfg.n)
            p = converse_bounds(cfg)
            return dataclasses.replace(p, r_lower=p.r_lower * (1.0 + 1e-15 * len(calls)))

        assert verify._chk_csv_rerun()[0]
        monkeypatch.setattr(awgn, "converse_bounds", drifting)
        assert not verify._chk_csv_rerun()[0] and calls


class TestParserOnce:
    """The parser is built once per process; one ``main`` call leaves
    nothing behind for the next."""

    ARGS = ["bounds", "--dist", "gaussian", "--side", "right", "--seed", "pdf", "--iters", "1",
            "--x-min", "1", "--x-max", "2", "--points", "3"]

    def test_built_once(self):
        assert cli._parser() is cli._parser()

    def test_calls_share_no_state(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(self.ARGS + ["--out", str(a), "--timestamp", "pinned"]) == 0
        assert run(self.ARGS + ["--out", str(b)]) == 0
        assert b"# timestamp: pinned\n" in read(a)
        assert b"# timestamp: 1970-01-01T00:00:00+00:00\n" in read(b)
        with monkeypatch.context() as m:
            m.setitem(verify.SUITES, "jet", [("jet.forced", lambda: (False, "forced"))])
            assert run(["verify", "--suite", "jet"]) == 1
        assert run(["verify", "--suite", "jet"]) == 0
        with pytest.raises(SystemExit) as exc:
            run(self.ARGS + ["--points", "0", "--out", str(b)])
        assert exc.value.code == 2
        assert "--points must be at least 1" in capsys.readouterr().err


class TestRowFormat:
    def test_rows_equal_the_per_cell_join(self):
        # every row through one %-template, against _fmt on every cell
        cells = [-0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
                 1.0 / 3.0, -1e300, 12345678901234567.0]
        fixed = ["U", "X", cli._fmt(None), cli._fmt(math.nan), cli._fmt(0.1)]
        template = ",".join(["%.17g"] * 5 + fixed + ["%.17g"] * 5)
        rows = [tuple(cells), tuple(reversed(cells)), tuple(cells[1:] + cells[:1])]
        want = [",".join([cli._fmt(v) for v in row[:5]] + fixed + [cli._fmt(v) for v in row[5:]]) for row in rows]
        assert cli._format_rows(template, rows) == want
        assert want[0].startswith("-0,,,inf,-inf,U,X,,,0.10000000000000001,4.9406564584124654e-324,")


_FIGS = [
    ["--dist", "gaussian", "--mu", "-1.7", "--sigma", "1.9", "--side", "right", "--seed", "pdf",
     "--x-min", "1", "--x-max", "30"],
    ["--dist", "beta-prime", "--alpha", "2.1", "--beta", "1.3", "--side", "right", "--seed", "shifted-pdf",
     "--x-min", "2", "--x-max", "60"],
    ["--dist", "ncchi2", "--k", "10", "--s", "2", "--side", "left", "--seed", "shifted-pdf",
     "--x-min", "0.05", "--x-max", "6"],
]


def _separate_pass_cells(chain, xs, order=0) -> dict:
    """The P_i, R_i and lnP_i cells of the chain at the points ``xs`` from
    a pass of its own at ``order`` over those points alone, written as the
    CSV writes a cell (empty for NaN)."""
    with np.errstate(all="ignore"):
        qs, steps, lf, _ = engine._chain(chain[-1], xs, order)
        steps = steps[: len(qs) - 1]
        log_p = [lf.value + q.value for q in qs]
        cols = {f"P_{i}": np.exp(v) for i, v in enumerate(log_p)}
        cols.update({f"R_{i}": abs(engine._flip(a)) for i, a in enumerate(steps)})
        cols.update({f"lnP_{i}": v for i, v in enumerate(log_p)})
    return {name: [cli._fmt(v) for v in col.tolist()] for name, col in cols.items()}


def _assert_cells_of_separate_passes(path, chain, window):
    """Every P_i, R_i and lnP_i cell of the CSV at ``path`` is the cell of
    a separate pass over its points, and every verdict and threshold is
    that of ``engine.classify`` of its iterate."""
    _, header, rows = parse_csv(path)
    xs = np.array([float(r[0]) for r in rows])  # %.17g: each x read back exactly
    want = _separate_pass_cells(chain, xs)
    assert len(want) == 3 * len(chain) - 1
    for name, cells in want.items():
        assert [r[header.index(name)] for r in rows] == cells, name
    for i, it in enumerate(chain):
        cls = engine.classify(it, window)
        assert {r[header.index(f"verdict_{i}")] for r in rows} == {cls.verdict.value}
        assert {r[header.index(f"threshold_{i}")] for r in rows} == {format(cls.threshold, ".17g")}


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _bounds_chain(d, argv, iters):
    chain = [engine.make_seed(d, SeedKind(_flag(argv, "--seed")), TailSide(_flag(argv, "--side")))]
    for _ in range(iters):
        chain.append(engine.iterate(chain[-1]))
    return chain


def _window(argv):
    return float(_flag(argv, "--x-min")), float(_flag(argv, "--x-max"))


class TestBoundsOneSweep:
    """`tailkit bounds` makes one grid pass of its deepest iterate, over
    the classification grid and the CSV points together. It writes the
    verdicts and thresholds that classifying each iterate on its own
    sweep gives, and the cells that a separate pass over the CSV points
    gives."""

    @staticmethod
    def _counting(monkeypatch, calls):
        for name in ("make_gaussian", "make_beta_prime", "make_noncentral_chi2"):
            factory = getattr(dist, name)

            def make(*args, factory=factory):
                spec = factory(*args)
                inner = spec.log_pdf_jet

                def counted(anchor, order):
                    calls.append((isinstance(anchor, np.ndarray), spec))
                    return inner(anchor, order)

                return dataclasses.replace(spec, log_pdf_jet=counted)

            monkeypatch.setattr(dist, name, make)

    @pytest.mark.parametrize("iters", ["4", "8"])
    @pytest.mark.parametrize("fig", range(len(_FIGS)), ids=["fig1", "fig2", "fig3"])
    def test_one_classification_sweep(self, monkeypatch, tmp_path, fig, iters):
        calls = []
        self._counting(monkeypatch, calls)
        out = tmp_path / "b.csv"
        assert run(["bounds"] + _FIGS[fig] + ["--iters", iters, "--out", str(out)] + TS) == 0
        # one grid pass, over the classification grid and the CSV points
        # together, classifies and writes the P_i, R_i and lnP_i columns
        assert sum(grid for grid, _ in calls) == 1
        _assert_cells_of_separate_passes(out, _bounds_chain(calls[0][1], _FIGS[fig], int(iters)), _window(_FIGS[fig]))

    def test_blank_where_only_the_order_one_pass_overflows(self, tmp_path):
        # a right-tail window from near x = 0 of a density that falls there:
        # ln x's coefficient of order 10 overflows below about 1e-31, so
        # the pass of P_8 at order 1 leaves those points undefined, where a
        # pass at order 0 (ln x to order 9) still has P_0 and lnP_0
        argv = ["--dist", "beta-prime", "--alpha", "0.5", "--beta", "1.3", "--side", "right", "--seed", "pdf",
                "--x-min", "1e-40", "--x-max", "60"]
        out = tmp_path / "b.csv"
        assert run(["bounds"] + argv + ["--iters", "8", "--out", str(out)] + TS) == 0
        _, header, rows = parse_csv(out)
        xs = np.array([float(r[0]) for r in rows])
        chain = _bounds_chain(dist.make_beta_prime(0.5, 1.3), argv, 8)
        order0, order1 = _separate_pass_cells(chain, xs), _separate_pass_cells(chain, xs, 1)
        for name, cells in order1.items():
            assert [r[header.index(name)] for r in rows] == cells, name
        differ = {i for name in order0 for i, (c0, c1) in enumerate(zip(order0[name], order1[name])) if c0 != c1}
        assert differ and max(xs[sorted(differ)]) < 1e-30
        assert all(order1[name][i] == "" for name in order1 for i in differ)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_drawn_settings_cells_of_separate_passes(self, data):
        kind = data.draw(st.sampled_from(["gaussian", "beta-prime", "ncchi2-left", "ncchi2-right"]))
        uniform = lambda lo, hi: data.draw(st.floats(lo, hi))
        if kind == "gaussian":
            mu, sigma = uniform(-2.0, 2.0), uniform(0.5, 3.0)
            a = mu + sigma * uniform(0.5, 3.0)
            argv = ["--dist", "gaussian", "--mu", repr(mu), "--sigma", repr(sigma), "--side", "right",
                    "--seed", "pdf", "--x-min", repr(a), "--x-max", repr(a + sigma * uniform(1.0, 20.0))]
            d = dist.make_gaussian(mu, sigma)
        elif kind == "beta-prime":
            alpha, beta = uniform(1.5, 4.0), uniform(1.1, 3.0)
            a = uniform(1.0, 5.0)
            argv = ["--dist", "beta-prime", "--alpha", repr(alpha), "--beta", repr(beta), "--side", "right",
                    "--seed", "shifted-pdf", "--x-min", repr(a), "--x-max", repr(a * uniform(3.0, 30.0))]
            d = dist.make_beta_prime(alpha, beta)
        else:
            k, s = uniform(4.0, 12.0), uniform(0.5, 12.0)
            if kind == "ncchi2-left":  # windows reaching down near x = 0
                a = 10.0 ** uniform(-9.0, math.log10(0.2))
                b = uniform(2.0 * a, 6.0)
                side, seed_kind = "left", "shifted-pdf"
            else:
                a = (k + s) * uniform(1.0, 3.0)
                b = a * uniform(1.5, 5.0)
                side, seed_kind = "right", "pdf"
            argv = ["--dist", "ncchi2", "--k", repr(k), "--s", repr(s), "--side", side,
                    "--seed", seed_kind, "--x-min", repr(a), "--x-max", repr(b)]
            d = dist.make_noncentral_chi2(k, s)
        iters = data.draw(st.integers(1, 8))
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "b.csv")
            # --flag=value: a negative value must not read as a flag
            flags = [f"{name}={value}" for name, value in zip(argv[::2], argv[1::2])]
            rc = run(["bounds"] + flags + ["--iters", str(iters), "--out", out] + TS)
            if rc != 0:  # a seed or level that fails: no table to compare
                assert not os.path.exists(out)
                return
            _assert_cells_of_separate_passes(out, _bounds_chain(d, argv, iters), _window(argv))


def _gaussian_reference_rates(x: int, n: int) -> list:
    """(|P_{k+1}/P_k - 1|, |P_k/P_{k+1} - 1|), k < n, of the N(0, 1)
    right-tail chain at x, at 60 digits: P_k = phi q_k with q_0 = 1/x and q_{k+1} = q_k/(x q_k -
    q_k'), carried exactly as q_k = N_k/D_k with integer polynomials
    (coefficients in ascending powers)."""

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] += u * v
        return out

    def add(a, b, sign=1):
        a, b = a + [0] * (len(b) - len(a)), b + [0] * (len(a) - len(b))
        return [u + sign * v for u, v in zip(a, b)]

    def der(a):
        return [k * c for k, c in enumerate(a)][1:]

    num, den, qs = [1], [0, 1], []
    with mp.workdps(60):
        at = mp.mpf(x)
        for _ in range(n + 1):
            qs.append(mp.polyval(num[::-1], at) / mp.polyval(den[::-1], at))
            nd = mul(num, den)
            num, den = nd, add(add([0] + nd, mul(der(num), den), -1), mul(num, der(den)))
        return [(abs(qs[k + 1] / qs[k] - 1), abs(qs[k] / qs[k + 1] - 1)) for k in range(n)]


class TestFarTail:
    """Where f is far below any absolute tolerance, the conditions and the
    rates keep their meaning: both are relative to f."""

    @pytest.mark.parametrize("side, window", [("right", ("7", "9")), ("left", ("-9", "-7"))])
    def test_verdicts(self, tmp_path, side, window):
        # the relative residuals at |x| = 8 are -1.5e-2, +4.7e-4, -2.9e-5
        out = tmp_path / "far.csv"
        assert run(["bounds", "--dist", "gaussian", "--mu", "0", "--sigma", "1", "--side", side, "--seed", "pdf",
                    "--iters", "2", "--x-min", window[0], "--x-max", window[1], "--out", str(out)] + TS) == 0
        _, header, rows = parse_csv(out)
        for row in rows:
            assert [row[header.index(f"verdict_{i}")] for i in range(3)] == ["U", "L", "U"]

    def test_log_columns_past_underflow(self, tmp_path):
        # P_i underflows to 0 from x ~ 38.6 on; lnP_i = ln f + q_i does not.
        # The Gaussian iterates are phi q_i with q_0 = 1/x, q_1 = x/(1 + x^2)
        # and q_2 = (x^3 + x)/(x^4 + 2x^2 - 1)
        out = tmp_path / "lnp.csv"
        assert run(["bounds", "--dist", "gaussian", "--mu", "0", "--sigma", "1", "--side", "right", "--seed", "pdf",
                    "--iters", "2", "--x-min", "30", "--x-max", "45", "--points", "5", "--out", str(out)] + TS) == 0
        _, header, rows = parse_csv(out)
        # appended after the R_i, so that the P, verdict and threshold columns keep their positions
        assert header == (["x"] + [f"{c}_{i}" for c in ("P", "verdict", "threshold") for i in range(3)]
                          + ["R_0", "R_1"] + [f"lnP_{i}" for i in range(3)])
        for row in rows[-2:]:
            with mp.workdps(60):
                x = mp.mpf(float(row[0]))
                qs = (1 / x, x / (1 + x**2), (x**3 + x) / (x**4 + 2 * x**2 - 1))
                for i, q in enumerate(qs):
                    assert row[header.index(f"P_{i}")] == "0"
                    got = float(row[header.index(f"lnP_{i}")])
                    want = -x * x / 2 - mp.log(2 * mp.pi) / 2 + mp.log(q)
                    assert math.isfinite(got) and abs(got / want - 1) <= 1e-13, (row[0], i)

    def test_rates_at_40(self, tmp_path):
        want = _gaussian_reference_rates(40, 7)
        assert 1e-18 < want[-1][0] < 1e-17
        out = tmp_path / "r.csv"
        assert run(["bounds", "--dist", "gaussian", "--mu", "0", "--sigma", "1", "--iters", "7",
                    "--x-min", "40", "--x-max", "41", "--points", "2", "--out", str(out)] + TS) == 0
        _, header, rows = parse_csv(out)
        assert rows[0][0] == "40"
        chain = [engine.make_seed(dist.make_gaussian(0.0, 1.0), SeedKind.PDF, TailSide.RIGHT)]
        for _ in range(6):
            chain.append(engine.iterate(chain[-1]))
        for k, (it, (r, c)) in enumerate(zip(chain, want)):
            assert abs(float(rows[0][header.index(f"R_{k}")]) / r - 1) <= 1e-12, k
            assert abs(engine.figure_rate(it, 40.0) / r - 1) <= 1e-12, k
            assert abs(engine.convergence_rate(it, 40.0) / c - 1) <= 1e-12, k


class TestImports:
    def test_library_imports_no_heavy_modules(self):
        # the command-line path and the library modules load neither scipy
        # nor mpmath, nor the verify suites: they count in every run's set-up
        code = (
            "import sys\n"
            "import tailkit.cli, tailkit.engine, tailkit.connections, tailkit.awgn, tailkit.oracle, tailkit.rootfind\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath') or m == 'tailkit.verify'))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "[]"
