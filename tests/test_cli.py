import dataclasses
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

from tailkit import cli, dist, engine
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

    def test_byte_identical_rerun(self, tmp_path):
        args = ["bounds", "--dist", "beta-prime", "--alpha", "2.1", "--beta", "1.3",
                "--side", "right", "--seed", "shifted-pdf", "--iters", "2",
                "--x-min", "2", "--x-max", "40", "--points", "15"] + TS
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert read(a) == read(b)

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


class TestAwgnCsv:
    def test_columns_and_oracle_blank_policy(self, tmp_path):
        out = tmp_path / "awgn.csv"
        rc = run(["awgn", "--omega", "1", "--eps", "1e-3",
                  "--n-list", "200,20000", "--oracle", "on", "--out", str(out)] + TS)
        assert rc == 0
        _, header, rows = parse_csv(out)
        assert header == ["n", "lambda_p0", "lambda_p1", "lambda_asym", "r_lower",
                          "r_upper", "r_asym", "r_na", "capacity", "oracle_converse"]
        byn = {int(r[0]): r for r in rows}
        assert byn[200][-1] != ""     # oracle on, below the cap
        assert byn[20000][-1] == ""    # above the oracle cap: blank
        assert float(byn[200][header.index("capacity")]) == 0.5
        oc = float(byn[200][-1])
        assert float(byn[200][4]) <= oc <= float(byn[200][5])

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

    def test_tol_override_forces_failure(self, capsys):
        rc = run(["verify", "--suite", "jet", "--tol", "jet_product_rule=1e-30"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_tol_key(self, capsys):
        # a bad flag: exit 2, with the key named
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--suite", "jet", "--tol", "nope=1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--tol" in err and "'nope'" in err

    @pytest.mark.parametrize("value", ["jet_fd=abc", "jet_fd", "jet_fd="])
    def test_bad_tol_value_exit_2(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--suite", "jet", "--tol", value])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err


_FIGS = [
    ["--dist", "gaussian", "--mu", "-1.7", "--sigma", "1.9", "--side", "right", "--seed", "pdf",
     "--x-min", "1", "--x-max", "30"],
    ["--dist", "beta-prime", "--alpha", "2.1", "--beta", "1.3", "--side", "right", "--seed", "shifted-pdf",
     "--x-min", "2", "--x-max", "60"],
    ["--dist", "ncchi2", "--k", "10", "--s", "2", "--side", "left", "--seed", "shifted-pdf",
     "--x-min", "0.05", "--x-max", "6"],
]


class TestBoundsOneSweep:
    """`tailkit bounds` classifies every iterate from one grid sweep, and
    writes the verdicts and thresholds that classifying each iterate on
    its own sweep gives."""

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
        assert run(["bounds"] + _FIGS[fig] + ["--iters", iters, "--points", "25", "--out", str(out)] + TS) == 0
        # one sweep classifies, one more writes the P_i and R_i columns
        assert sum(grid for grid, _ in calls) == 2

        _, header, rows = parse_csv(out)
        d = calls[0][1]
        args = _FIGS[fig]
        side = TailSide(args[args.index("--side") + 1])
        seed_kind = SeedKind(args[args.index("--seed") + 1])
        window = (float(args[args.index("--x-min") + 1]), float(args[args.index("--x-max") + 1]))
        chain = [engine.make_seed(d, seed_kind, side)]
        for _ in range(int(iters)):
            chain.append(engine.iterate(chain[-1]))
        for i, it in enumerate(chain):
            cls = engine.classify(it, window)
            assert rows[0][header.index(f"verdict_{i}")] == cls.verdict.value
            assert rows[0][header.index(f"threshold_{i}")] == format(cls.threshold, ".17g")


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
